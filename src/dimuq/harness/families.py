"""The one reader of JSON config blocks, and the model family registry.

``read_config`` turns every config block, from a grid candidate to the whole
document, into its dataclass. The registry is a table of (parameter
dataclass, model constructor) pairs, so grid axes stay plain documents.
"""

from __future__ import annotations

import functools
import types
import typing
from dataclasses import dataclass

from ..bnn import (
    DEFAULT_DRAWS,
    DEFAULT_ENSEMBLE_EPOCHS,
    DEFAULT_HEAD_EPOCHS,
    EnsembleConfig,
    HeadConfig,
    decompose_uncertainty,
    train_ensemble_model,
    train_head_model,
)
from ..errors import ConfigError
from ..gpr import GprConfig, GprRegressor
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

def matches(hint, value) -> bool:
    """Whether the JSON ``value`` fits the annotation ``hint``. A float
    field takes an int, an int field no float, and neither a bool; a
    ``tuple[X, ...]`` field takes a list. Annotations that are not JSON
    types are left to the dataclass."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(matches(member, value) for member in args)
    if origin is tuple:
        return isinstance(value, (list, tuple)) and all(matches(args[0], v) for v in value)
    if hint not in (type(None), bool, int, float, str, list, dict):
        return True
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


# a config dataclass's type hints are its fields, resolved once per class
_field_types = functools.cache(typing.get_type_hints)


def read_config(cls, doc, where: str, seed: int | None = None):
    """The ``cls`` instance the JSON object ``doc`` describes. Each key must
    name a field and each value fit its annotation; ``seed`` fills a
    ``seed`` field the block leaves unset. Any failure, the dataclass's own
    checks included, raises ConfigError."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, not {doc!r}")
    hints = _field_types(cls)
    unknown = sorted(set(doc) - set(hints))
    if unknown:
        raise ConfigError(f"unknown parameter(s) {unknown} for {where}")
    if seed is not None and "seed" in hints and "seed" not in doc:
        doc = {**doc, "seed": seed}
    try:
        for name, value in doc.items():
            hint = hints[name]
            if not matches(hint, value):
                raise TypeError(f"{name} must be {getattr(hint, '__name__', hint)}, "
                                f"not {value!r}")
        return cls(**doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where} parameters: {exc}") from exc


@dataclass(frozen=True)
class _HeadParams(HeadConfig):
    epochs: int = DEFAULT_HEAD_EPOCHS
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")


@dataclass(frozen=True)
class _EnsembleParams(EnsembleConfig):
    epochs: int = DEFAULT_ENSEMBLE_EPOCHS
    n_draws: int = DEFAULT_DRAWS
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.n_draws < 2:
            raise ConfigError("n_draws must be >= 2")


class _NetworkAdapter(ProbabilisticRegressor):
    """A network trained from ``config``: its network config plus epochs and seed."""

    def __init__(self, config):
        self.config = config

    def diagnostics(self) -> dict:
        return {} if self.width is None else self.network.diagnostics()


class _HeadModelAdapter(_NetworkAdapter):
    def fit(self, matrix):
        self.network = train_head_model(matrix, self.config, epochs=self.config.epochs,
                                        seed=self.config.seed)
        self.width = matrix.width
        return self

    def predict_dist(self, features):
        queries = self.queries(features)  # before self.network, which a fit sets
        return self.network.predict_dist(queries)


class _EnsembleModelAdapter(_NetworkAdapter):
    def fit(self, matrix):
        self.network = train_ensemble_model(matrix, self.config,
                                            epochs=self.config.epochs,
                                            seed=self.config.seed)
        self.width = matrix.width
        return self

    def _ensemble(self, features):
        # looked up on dimuq.bnn at call time: perfbench/layers.py wraps it there
        from ..bnn import ensemble_predict
        queries = self.queries(features)
        return ensemble_predict(self.network, queries, n_draws=self.config.n_draws,
                                seed=self.config.seed)

    def predict(self, features) -> Prediction:
        return Prediction(self._ensemble(features).mixture_means())

    def predict_spread(self, features):
        ensemble = self._ensemble(features)
        decomposition = decompose_uncertainty(ensemble)
        return ensemble.mixture_means(), decomposition.aleatoric, decomposition.epistemic

    def predict_dist(self, features):
        ensemble = self._ensemble(features)
        return PredictiveDistribution(means=ensemble.mixture_means(),
                                      stddevs=decompose_uncertainty(ensemble).total)


# family: (parameter dataclass, constructor, path axis). On a path axis a
# fitted model's ``predict_path(features, values)`` gives, for every value
# up to its own, what a fit at that value predicts, and every such value
# fits wherever the model's own value does.
_FAMILIES = {
    "knn": (KnnConfig, KnnRegressor, "k"),
    "decision_tree": (TreeConfig, DecisionTreeRegressor, "max_depth"),
    "random_forest": (ForestConfig, RandomForestRegressor, None),
    "gbt": (GbtConfig, GradientBoostingRegressor, None),
    "svr": (SvrConfig, SvrRegressor, None),
    "mlp": (MlpConfig, MlpRegressor, None),
    "gpr": (GprConfig, GprRegressor, None),
    "bnn_head": (_HeadParams, _HeadModelAdapter, None),
    "bnn_ensemble": (_EnsembleParams, _EnsembleModelAdapter, None),
}

FAMILY_NAMES = tuple(_FAMILIES)


def build_model(family: str, params: dict, seed: int = 0):
    """An unfitted model of ``family`` from plain key/value parameters; the
    ``seed`` applies when the family has one and ``params`` leave it unset.
    A bad key or value raises ConfigError."""
    if family not in _FAMILIES:
        raise ConfigError(f"unknown model family {family!r}; known: {sorted(_FAMILIES)}")
    config_type, construct, _ = _FAMILIES[family]
    if family == "gbt" and "max_depth" in params and "max_leaf_nodes" not in params:
        # gbt only: a depth limit without a leaf budget turns the budget off
        params = {**params, "max_leaf_nodes": None}
    return construct(read_config(config_type, params, family, seed=seed))


def path_axis(family: str) -> str | None:
    """The grid axis along which one fit of ``family`` serves every smaller
    value (``None`` counts as the largest), or None when it has none or is
    not a family."""
    return _FAMILIES.get(family, (None, None, None))[2]
