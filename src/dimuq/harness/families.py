"""Model family registry: names, config types, and constructors.

The registry is what lets grid axes stay plain key/value documents; a
candidate is merged into the family's default config and instantiated here.
Families whose configs carry a seed get one derived from the protocol when
the candidate does not pin it.
"""

from __future__ import annotations

from dataclasses import fields

from ..bnn import (
    DEFAULT_ENSEMBLE_EPOCHS,
    EnsembleConfig,
    EnsembleNetwork,
    HeadConfig,
    HeadNetwork,
    decompose_uncertainty,
    train_ensemble_model,
    train_head_model,
)
from ..errors import ConfigError
from ..gpr import GprRegressor, KernelParams
from ..metrics import Prediction, PredictiveDistribution, ProbabilisticRegressor
from ..models import (
    DecisionTreeRegressor,
    ForestConfig,
    GbtConfig,
    GradientBoostingRegressor,
    KnnConfig,
    KnnRegressor,
    MlpConfig,
    MlpRegressor,
    RandomForestRegressor,
    SvrConfig,
    SvrRegressor,
    TreeConfig,
)


class _HeadModelAdapter(ProbabilisticRegressor):
    def __init__(self, config: HeadConfig, epochs: int, seed: int):
        self.config = config
        self.epochs = epochs
        self.seed = seed
        self.network: HeadNetwork | None = None

    def fit(self, matrix):
        self.network = train_head_model(matrix, self.config, epochs=self.epochs,
                                        seed=self.seed)
        return self

    def predict(self, features) -> Prediction:
        if self.network is None:
            raise ConfigError("predict before fit")
        return self.network.predict(features)

    def diagnostics(self) -> dict:
        return {} if self.network is None else self.network.diagnostics()

    def predict_dist(self, features):
        if self.network is None:
            raise ConfigError("predict before fit")
        return self.network.predict_dist(features)


class _EnsembleModelAdapter(ProbabilisticRegressor):
    def __init__(self, config: EnsembleConfig, epochs: int, seed: int, n_draws: int):
        self.config = config
        self.epochs = epochs
        self.seed = seed
        self.n_draws = n_draws
        self.network: EnsembleNetwork | None = None

    def fit(self, matrix):
        self.network = train_ensemble_model(matrix, self.config, epochs=self.epochs,
                                            seed=self.seed)
        return self

    def diagnostics(self) -> dict:
        return {} if self.network is None else self.network.diagnostics()

    def _ensemble(self, features):
        # looked up on dimuq.bnn at call time: perfbench/layers.py wraps it there
        from ..bnn import ensemble_predict
        if self.network is None:
            raise ConfigError("predict before fit")
        return ensemble_predict(self.network, features, n_draws=self.n_draws,
                                seed=self.seed)

    def predict(self, features) -> Prediction:
        return Prediction(self._ensemble(features).mixture_means())

    def predict_decomposed(self, features):
        """(mixture means, UncertaintyDecomposition) of one set of draws."""
        ensemble = self._ensemble(features)
        return ensemble.mixture_means(), decompose_uncertainty(ensemble)

    def predict_dist(self, features):
        means, decomposition = self.predict_decomposed(features)
        return PredictiveDistribution(means=means, stddevs=decomposition.total)


def _config_kwargs(config_type, params: dict) -> dict:
    names = {f.name for f in fields(config_type)}
    unknown = set(params) - names
    if unknown:
        raise ConfigError(
            f"unknown parameter(s) {sorted(unknown)} for {config_type.__name__}"
        )
    return params


def _build_knn(params, seed):
    return KnnRegressor(KnnConfig(**_config_kwargs(KnnConfig, params)))


def _build_tree(params, seed):
    return DecisionTreeRegressor(TreeConfig(**_config_kwargs(TreeConfig, params)))


def _build_forest(params, seed):
    params.setdefault("seed", seed)
    return RandomForestRegressor(ForestConfig(**_config_kwargs(ForestConfig, params)))


def _build_gbt(params, seed):
    params.setdefault("seed", seed)
    if "max_depth" in params and "max_leaf_nodes" not in params:
        params["max_leaf_nodes"] = None
    return GradientBoostingRegressor(GbtConfig(**_config_kwargs(GbtConfig, params)))


def _build_svr(params, seed):
    return SvrRegressor(SvrConfig(**_config_kwargs(SvrConfig, params)))


def _build_mlp(params, seed):
    params.setdefault("seed", seed)
    return MlpRegressor(MlpConfig(**_config_kwargs(MlpConfig, params)))


def _build_gpr(params, seed):
    n_restarts = params.pop("n_restarts", 0)
    init = KernelParams(
        amplitude=params.pop("amplitude", 1.0),
        length_scale=params.pop("length_scale", 1.0),
        noise_level=params.pop("noise_level", 1.0),
        nu=params.pop("nu", 1.5),
    )
    gpr_seed = params.pop("seed", seed)
    if params:
        raise ConfigError(f"unknown parameter(s) {sorted(params)} for gpr")
    return GprRegressor(init=init, n_restarts=int(n_restarts), seed=gpr_seed)


def _build_bnn_head(params, seed):
    epochs = params.pop("epochs", 4000)
    bnn_seed = params.pop("seed", seed)
    config = HeadConfig(**_config_kwargs(HeadConfig, params))
    return _HeadModelAdapter(config, epochs=int(epochs), seed=bnn_seed)


def _build_bnn_ensemble(params, seed):
    epochs = params.pop("epochs", DEFAULT_ENSEMBLE_EPOCHS)
    n_draws = int(params.pop("n_draws", 200))
    if n_draws < 2:
        raise ConfigError("n_draws must be >= 2")
    bnn_seed = params.pop("seed", seed)
    config = EnsembleConfig(**_config_kwargs(EnsembleConfig, params))
    return _EnsembleModelAdapter(config, epochs=int(epochs), seed=bnn_seed,
                                 n_draws=n_draws)


# each builder gets its own copy of the params, which it may change
_BUILDERS = {
    "knn": _build_knn,
    "decision_tree": _build_tree,
    "random_forest": _build_forest,
    "gbt": _build_gbt,
    "svr": _build_svr,
    "mlp": _build_mlp,
    "gpr": _build_gpr,
    "bnn_head": _build_bnn_head,
    "bnn_ensemble": _build_bnn_ensemble,
}

FAMILY_NAMES = tuple(_BUILDERS)


def build_model(family: str, params: dict, seed: int = 0):
    """An unfitted model of ``family`` from plain key/value parameters. A
    value of the wrong type or form raises ConfigError, chained to the
    original TypeError or ValueError."""
    builder = _BUILDERS.get(family)
    if builder is None:
        raise ConfigError(f"unknown model family {family!r}; known: {sorted(_BUILDERS)}")
    try:
        return builder(dict(params), seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {family} parameters: {exc}") from exc
