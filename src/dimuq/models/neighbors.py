"""k-nearest-neighbor regression with an exact ranking of the training rows:
brute-force manhattan distances, and euclidean distances only for the
candidate rows that a Gram-form bound keeps (``_candidate_ranking``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..distances import sq_distances
from ..errors import ConfigError, check_count
from ..metrics import Prediction, Regressor

METRICS = ("euclidean", "manhattan")


@dataclass(frozen=True)
class KnnConfig:
    k: int = 6
    metric: str = "euclidean"

    def __post_init__(self):
        check_count("k", self.k)
        if self.metric not in METRICS:
            raise ConfigError(f"unknown metric {self.metric!r}")


# Memory bounds of one predict_path call, in float64 elements, so that its
# working memory stays under ~3 MB for any number of queries: the (queries,
# rows) block of distances or Gram-form values that one selection reads
# (1 MB, or one query's row if larger; argpartition's index array or
# partition's copy is as large again), and the difference buffer of the
# exact distances (0.5 MB, or one query's rows if larger).
_DIFF_ELEMENTS = 62_500
_BLOCK_ELEMENTS = 125_000

_U = 2.0 ** -53  # the unit roundoff of float64


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
        """Raw predictions for each ``k`` in ``ks`` from one ranking of the
        ``max(ks)`` nearest rows by (distance, training-row index); the
        first ``k`` of them are a fit at that ``k``."""
        queries = self.queries(features)
        n = self._X.shape[0]
        for k in ks:
            check_count("k", k)
            if k > n:
                raise ConfigError(f"k={k} exceeds {n} training rows")
        k_max = max(ks, default=1)
        outs = [np.empty(queries.shape[0]) for _ in ks]
        block_rows = max(1, _BLOCK_ELEMENTS // n)
        diff = dists = None  # the brute-force pass's buffers, made on first use
        for start in range(0, queries.shape[0], block_rows):
            block = queries[start:start + block_rows]
            ranking = None
            if self.config.metric == "euclidean" and 4 * k_max <= n:
                ranking = self._candidate_ranking(block, k_max)
            if ranking is None:  # manhattan, k_max above n/4 or no bound
                if dists is None:
                    diff_rows = max(1, _DIFF_ELEMENTS // max(1, self._X.size))
                    diff = np.empty((min(diff_rows, queries.shape[0]), *self._X.shape))
                    dists = np.empty((min(block_rows, queries.shape[0]), n))
                ranking = _nearest(self._distances(block, diff, dists[:block.shape[0]]), k_max)
            for k, out in zip(ks, outs):
                out[start:start + block.shape[0]] = self._y[ranking[:, :k]].mean(axis=1)
        return outs

    def _distances(self, block: np.ndarray, diff: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out`` filled with the distances of ``block`` to every training
        row, by chunks of queries through the difference buffer ``diff``."""
        for row in range(0, block.shape[0], diff.shape[0]):
            chunk = block[row:row + diff.shape[0]]
            chunk_diff = diff[:chunk.shape[0]]
            np.subtract(chunk[:, None, :], self._X[None, :, :], out=chunk_diff)
            if self.config.metric == "euclidean":
                np.square(chunk_diff, out=chunk_diff)
            else:
                np.abs(chunk_diff, out=chunk_diff)
            chunk_diff.sum(axis=2, out=out[row:row + chunk.shape[0]])
        if self.config.metric == "euclidean":
            np.sqrt(out, out=out)
        return out

    def _candidate_ranking(self, block: np.ndarray, k_max: int) -> np.ndarray | None:
        """The ``_nearest`` ranking of ``block``'s brute-force distances, from
        the rows a Gram-form bound keeps (the multi-step exact k-NN of Seidl
        & Kriegel, SIGMOD 1998); None if the bound does not hold or ties
        crowd the block.

        With S = |q|² + |x|², width w and u = 2⁻⁵³, a w-term sum or dot
        product errs by γ_w ≈ wu times its absolute terms (Higham, *Accuracy
        and Stability of Numerical Algorithms*, 2002, §3.1 and §4.2). The
        Gram form's two norms err by γ_w·S, its product 2q·x by γ_w·S, their
        sum by u·S and the subtraction by 2u·S; the clip at 0 only helps.
        The brute-force d = Σ(q_j − x_j)² rounds each term three times and
        adds w: γ_(w+2)·|q − x|² ≤ 2(w + 2)u·S. So the two differ by (4w + 7)u·S
        to first order, and m = (8w + 16)(u·(|q|² + max|x|²) + 2⁻¹⁰⁷⁴) more
        than doubles that, which covers the higher orders, m's own rounding
        and underflow (2⁻¹⁰⁷⁵ per product). Every |q|² + max|x|² must be at
        most 1e300, so that no square overflows; NaN and ±inf fail too.

        The candidates are the rows whose Gram value is at most
        (kth + 2m)(1 + 8u), kth being the ``k_max``-th smallest. At least
        ``k_max`` rows have d ≤ kth + m, so the ``k_max``-th smallest d is
        d_k ≤ kth + m. A ranked row has fl(sqrt(d)) ≤ fl(sqrt(d_k)), so
        d ≤ d_k(1 + u)²/(1 − u)² < d_k(1 + 5u), and its Gram value is below
        (kth + 2m)(1 + 5u), which the twice-rounded limit exceeds. Their
        exact distances take the brute-force operations (subtract, square,
        sum a contiguous row of w, sqrt), so its bits; sorted by (distance,
        row), the first ``k_max`` of them are the ranking.
        """
        X = self._X
        width = X.shape[1]
        sq_rows = (block ** 2).sum(axis=1) + (X ** 2).sum(axis=1).max()
        if not np.all(sq_rows <= 1e300):
            return None
        margin = (8 * width + 16) * (_U * sq_rows + 2.0 ** -1074)
        approx = sq_distances(block, X)
        kth = np.partition(approx, k_max - 1, axis=1)[:, k_max - 1]
        near = approx <= ((kth + 2 * margin) * (1 + 8 * _U))[:, None]
        if 4 * np.count_nonzero(near) > near.size:
            return None  # ties crowd the block: the brute-force pass costs no more
        query, rows = np.divmod(np.flatnonzero(near), near.shape[1])
        dists = np.empty(rows.size)
        step = max(1, _DIFF_ELEMENTS // width)
        for at in range(0, rows.size, step):
            diff = block[query[at:at + step]]
            diff -= X[rows[at:at + step]]
            np.square(diff, out=diff)
            np.sqrt(diff.sum(axis=1), out=dists[at:at + step])
        # candidates come in (query, row) order and lexsort is stable
        ranked = rows[np.lexsort((dists, query))]
        starts = np.searchsorted(query, np.arange(block.shape[0]))
        return ranked[starts[:, None] + np.arange(k_max)]


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
