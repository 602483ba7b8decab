"""Random forest: bagged squared-error trees with per-split feature sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..metrics import Prediction, Regressor
from .tree import grow_forest, predict_tree
# Not called here: perfbench/layers.py wraps this name on this module.
from .tree import grow_tree


@dataclass(frozen=True)
class ForestConfig:
    n_estimators: int = 300
    max_features: int = 3
    min_samples_leaf: int = 3
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_estimators < 1:
            raise ConfigError("n_estimators must be >= 1")
        if self.max_features < 1:
            raise ConfigError("max_features must be >= 1")
        if self.min_samples_leaf < 1:
            raise ConfigError("min_samples_leaf must be >= 1")


class RandomForestRegressor(Regressor):
    """Mean of unlimited-depth trees, each grown on its own bootstrap resample.

    Every tree draws its bootstrap rows and per-split feature subsets from a
    stream derived from (seed, tree index), so fits are reproducible and
    independent of how the trees are batched. The trees grow in lockstep,
    a batch at a time (``tree.grow_forest``).
    """

    def __init__(self, config: ForestConfig | None = None):
        self.config = config or ForestConfig()

    def fit(self, matrix) -> "RandomForestRegressor":
        cfg = self.config
        if cfg.max_features > matrix.width:
            raise ConfigError(
                f"max_features={cfg.max_features} exceeds {matrix.width} feature columns"
            )
        n = matrix.n_rows
        rngs = [np.random.default_rng(np.random.SeedSequence([cfg.seed, t]))
                for t in range(cfg.n_estimators)]
        # drawn as each batch is filled, before the tree draws any features
        row_sets = (rng.integers(0, n, size=n) if cfg.bootstrap else np.arange(n)
                    for rng in rngs)
        self._trees = grow_forest(
            matrix.features, matrix.targets, row_sets, rngs,
            min_samples_leaf=cfg.min_samples_leaf, max_features=cfg.max_features,
        )
        self.width = matrix.width
        return self

    def predict(self, features) -> Prediction:
        queries = self.queries(features)
        total = np.zeros(queries.shape[0])
        for tree in self._trees:
            total += predict_tree(tree, queries)
        return Prediction(total / len(self._trees))
