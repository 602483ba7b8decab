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


# Memory bounds of one predict_path call, in float64 elements, so that its
# working memory stays under ~3 MB for any number of queries: the (queries,
# rows, columns) difference buffer that the subtract, square or abs, and sum
# passes reuse in place (0.5 MB, or one query's rows if larger), and the
# (queries, rows) distance block that one selection reads (1 MB, or one
# query's row if larger; argpartition's index array is as large again).
_DIFF_ELEMENTS = 62_500
_BLOCK_ELEMENTS = 125_000


class KnnRegressor(Regressor):
    """Predicts the unweighted mean target of the k nearest training rows.

    Neighbours rank by distance, then by the lower training-row index, so a
    distance tie breaks toward the lower index.
    """

    def __init__(self, config: KnnConfig | None = None):
        self.config = config or KnnConfig()

    def fit(self, matrix) -> "KnnRegressor":
        if self.config.k > matrix.n_rows:
            raise ConfigError(f"k={self.config.k} exceeds {matrix.n_rows} training rows")
        self._X = matrix.features
        self._y = matrix.targets
        self.width = matrix.width
        return self

    def predict(self, features) -> Prediction:
        return Prediction(self.predict_path(features, [self.config.k])[0])

    def predict_path(self, features, ks) -> list[np.ndarray]:
        """Raw predictions for each ``k`` in ``ks`` from one distance pass and
        one ranking of the ``max(ks)`` nearest rows by (distance, training-row
        index); the first ``k`` of them are a fit at that ``k``."""
        queries = self.queries(features)
        n, width = self._X.shape
        for k in ks:
            if k < 1:
                raise ConfigError(f"k={k} must be >= 1")
            if k > n:
                raise ConfigError(f"k={k} exceeds {n} training rows")
        k_max = max(ks, default=1)
        outs = [np.empty(queries.shape[0]) for _ in ks]
        diff_rows = max(1, _DIFF_ELEMENTS // max(1, self._X.size))
        block_rows = max(1, _BLOCK_ELEMENTS // n)
        diff = np.empty((min(diff_rows, queries.shape[0]), n, width))
        dists = np.empty((min(block_rows, queries.shape[0]), n))
        for start in range(0, queries.shape[0], block_rows):
            block = queries[start:start + block_rows]
            block_dists = dists[:block.shape[0]]
            for row in range(0, block.shape[0], diff_rows):
                chunk = block[row:row + diff_rows]
                chunk_diff = diff[:chunk.shape[0]]
                np.subtract(chunk[:, None, :], self._X[None, :, :], out=chunk_diff)
                if self.config.metric == "euclidean":
                    np.square(chunk_diff, out=chunk_diff)
                else:
                    np.abs(chunk_diff, out=chunk_diff)
                chunk_diff.sum(axis=2, out=block_dists[row:row + chunk.shape[0]])
            if self.config.metric == "euclidean":
                np.sqrt(block_dists, out=block_dists)
            ranking = _nearest(block_dists, k_max)
            for k, out in zip(ks, outs):
                out[start:start + block.shape[0]] = self._y[ranking[:, :k]].mean(axis=1)
        return outs


def _nearest(dists: np.ndarray, k: int) -> np.ndarray:
    """The first ``k`` columns of each row's stable ``argsort``: the ``k``
    smallest distances, ties toward the lower column.

    ``argpartition`` selects ``k`` columns and only those are ordered, by
    column and then stably by distance. That is the stable ranking whenever
    exactly ``k`` columns lie at or below the k-th distance, ``k`` equal to
    the column count included; a row with more (a tie across the k-th place)
    or fewer (a NaN) is ranked in full.
    """
    picks = np.argpartition(dists, k - 1, axis=1)[:, :k]
    kth = np.take_along_axis(dists, picks[:, -1:], axis=1)
    picks.sort(axis=1)
    order = np.argsort(np.take_along_axis(dists, picks, axis=1), axis=1, kind="stable")
    ranking = np.take_along_axis(picks, order, axis=1)
    ambiguous = np.count_nonzero(dists <= kth, axis=1) != k
    if ambiguous.any():
        ranking[ambiguous] = np.argsort(dists[ambiguous], axis=1, kind="stable")[:, :k]
    return ranking
