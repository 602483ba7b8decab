"""Gradient-boosted regression trees with shrinkage and stage subsampling.

Each stage fits a squared-error tree to the current residuals (the negative
gradient of the squared loss), optionally on a fresh without-replacement row
subsample, and adds it scaled by the learning rate. Tree growth is bounded
either best-first by leaf count or level-wise by depth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..metrics import Prediction, Regressor
from .tree import grow_tree, predict_tree


@dataclass(frozen=True)
class GbtConfig:
    learning_rate: float = 0.3
    n_estimators: int = 120
    max_leaf_nodes: int | None = 30
    max_depth: int | None = None
    subsample: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.learning_rate <= 1.0:
            raise ConfigError("learning_rate must be in (0, 1]")
        if self.n_estimators < 0:
            raise ConfigError("n_estimators must be >= 0")
        if not 0.0 < self.subsample <= 1.0:
            raise ConfigError("subsample must be in (0, 1]")
        if self.max_leaf_nodes is not None and self.max_depth is not None:
            raise ConfigError("set max_leaf_nodes or max_depth, not both")
        if self.max_leaf_nodes is not None and self.max_leaf_nodes < 2:
            raise ConfigError("max_leaf_nodes must be >= 2")


class GradientBoostingRegressor(Regressor):
    def __init__(self, config: GbtConfig | None = None):
        self.config = config or GbtConfig()

    def fit(self, matrix) -> "GradientBoostingRegressor":
        cfg = self.config
        X, y = matrix.features, matrix.targets
        n = matrix.n_rows
        if n == 0:
            raise ConfigError("cannot fit on empty training data")
        self.base_value = float(y.mean())
        self.trees = []
        self.train_losses = []  # per-stage mean squared training error
        current = np.full(n, self.base_value)
        for stage in range(cfg.n_estimators):
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, stage]))
            if cfg.subsample < 1.0:
                size = max(1, int(cfg.subsample * n))
                rows = rng.choice(n, size=size, replace=False)
            else:
                rows = np.arange(n)
            residuals = y[rows] - current[rows]
            tree = grow_tree(X[rows], residuals, criterion="squared_error",
                             max_depth=cfg.max_depth, max_leaf_nodes=cfg.max_leaf_nodes,
                             min_samples_leaf=1)
            current += cfg.learning_rate * predict_tree(tree, X)
            self.trees.append(tree)
            self.train_losses.append(float(np.mean((y - current) ** 2)))
        self.width = matrix.width
        return self

    def predict(self, features) -> Prediction:
        queries = self.queries(features)
        out = np.full(queries.shape[0], self.base_value)
        for tree in self.trees:
            out += self.config.learning_rate * predict_tree(tree, queries)
        return Prediction(out)
