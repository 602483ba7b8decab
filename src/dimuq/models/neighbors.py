"""k-nearest-neighbor regression with exact brute-force distances."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..metrics import Prediction, Regressor

METRICS = ("euclidean", "manhattan")


@dataclass(frozen=True)
class KnnConfig:
    k: int = 6
    metric: str = "euclidean"

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.metric not in METRICS:
            raise ConfigError(f"unknown metric {self.metric!r}")


class KnnRegressor(Regressor):
    """Predicts the unweighted mean target of the k nearest training rows.

    Distance ties break toward the lower training-row index (stable sort).
    """

    def __init__(self, config: KnnConfig | None = None):
        self.config = config or KnnConfig()
        self._X: np.ndarray | None = None
        self._y: np.ndarray | None = None

    def fit(self, matrix) -> "KnnRegressor":
        if self.config.k > matrix.n_rows:
            raise ConfigError(f"k={self.config.k} exceeds {matrix.n_rows} training rows")
        self._X = matrix.features
        self._y = matrix.targets
        return self

    def predict(self, features) -> Prediction:
        return Prediction(self.predict_path(features, [self.config.k])[0])

    def predict_path(self, features, ks) -> list[np.ndarray]:
        """Raw predictions for each ``k`` in ``ks``: one distance pass and one
        stable ranking, whose first ``k`` columns are the ``k`` nearest rows,
        so each equals a fit at that ``k``."""
        if self._X is None:
            raise ConfigError("predict before fit")
        for k in ks:
            if k > self._y.size:
                raise ConfigError(f"k={k} exceeds {self._y.size} training rows")
        queries = np.atleast_2d(np.asarray(features, dtype=np.float64))
        outs = [np.empty(queries.shape[0]) for _ in ks]
        # chunked so the (q, n, d) difference tensor stays within 2 MB
        chunk = max(1, int(2.5e5 // max(1, self._X.size)))
        for start in range(0, queries.shape[0], chunk):
            block = queries[start:start + chunk]
            diff = block[:, None, :] - self._X[None, :, :]
            if self.config.metric == "euclidean":
                dists = np.sqrt((diff ** 2).sum(axis=2))
            else:
                dists = np.abs(diff).sum(axis=2)
            ranking = np.argsort(dists, axis=1, kind="stable")
            for k, out in zip(ks, outs):
                out[start:start + block.shape[0]] = self._y[ranking[:, :k]].mean(axis=1)
        return outs
