"""Regression trees: greedy binary splits under squared or absolute error.

Split candidates are midpoints between consecutive distinct feature values.
Each column is sorted once per tree and the sorted row lists are
partitioned down to the children (CART presorting), so every node scans a
column's rows in ascending (value, row) order. Bit-equal split scores
resolve to the lowest feature index, then the lowest threshold, so refits
are bit-reproducible. Scores equal only in exact arithmetic are settled by
rounding: complementary one-hot columns induce the same partition but sum
the rows in different orders, so either may win. A depth-4 tree on
``synthetic_matrix(800, 0.05, 13)`` splits an 84-row node on column 15
(``feature_category=outer``), not on its complement, column 14.

Growth is either depth-limited, splitting nodes in pre-order, or best-first
up to a leaf budget (the boosting machine's). Depth-limited growth reads
``max_depth`` only to stop, and every internal node keeps its own leaf
value, so ``predict_tree`` with a depth cut ``d`` on a deeper tree predicts
bit for bit what the tree grown to depth ``d`` does; grid search scores a
whole ``max_depth`` path from one fit. Absolute-error split search
caps the candidate thresholds per feature at 128 evenly spread positions
once a node exceeds that many distinct values; small nodes are searched
exhaustively.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..metrics import Prediction, Regressor

_MAE_CANDIDATE_CAP = 128

CRITERIA = ("squared_error", "absolute_error")


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int | None = 20
    min_samples_leaf: int = 5
    criterion: str = "squared_error"

    def __post_init__(self):
        if self.max_depth is not None and self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        if self.min_samples_leaf < 1:
            raise ConfigError("min_samples_leaf must be >= 1")
        if self.criterion not in CRITERIA:
            raise ConfigError(f"unknown criterion {self.criterion!r}")


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, value: float):
        self.feature = -1
        self.threshold = 0.0
        self.left: "_Node | None" = None
        self.right: "_Node | None" = None
        self.value = value

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _leaf_value(y: np.ndarray, criterion: str) -> float:
    return float(np.median(y)) if criterion == "absolute_error" else float(y.mean())


def _best_split(X: np.ndarray, y: np.ndarray, order: np.ndarray, criterion: str,
                min_leaf: int, max_features: int | None, rng):
    """One node's best ``(feature, threshold, gain)`` with positive gain, or None.

    ``order[f]`` lists the node's rows in ascending (value, row) order of
    column ``f``, and ``order[-1]`` lists them in row order. The first
    minimum score, feature-major, wins. Squared-error scores are the
    children's summed SSE from running sums, and the gain is taken from the
    chosen column's own totals. Absolute-error scores are negated gains,
    cost - impurity; rounding is symmetric, so the first minimum score is
    the first maximum gain, impurity - cost.
    """
    y_node = y[order[-1]]
    m = y_node.size
    if m < 2 * min_leaf or np.all(y_node == y_node[0]):
        return None
    features = _candidate_features(X.shape[1], max_features, rng)
    rows = order[features]
    sx, sy = X[rows, features[:, None]], y[rows]
    counts = np.arange(1, m, dtype=np.float64)
    valid = (counts >= min_leaf) & (m - counts >= min_leaf) & (sx[:, 1:] > sx[:, :-1])
    if not np.any(valid):
        return None
    if criterion == "squared_error":
        csum, csum2 = np.cumsum(sy, axis=1), np.cumsum(sy ** 2, axis=1)
        total, total2 = csum[:, -1:], csum2[:, -1:]
        csum, csum2 = csum[:, :-1], csum2[:, :-1]
        score = (csum2 - csum ** 2 / counts) \
            + ((total2 - csum2) - (total - csum) ** 2 / (m - counts))
        parent = total2[:, 0] - total[:, 0] ** 2 / m
    else:
        impurity = float(np.abs(y_node - np.median(y_node)).sum())
        parent = np.zeros(features.size)
        score = np.full(valid.shape, np.inf)
        for j, ys in enumerate(sy):
            positions = np.flatnonzero(valid[j])
            if positions.size > _MAE_CANDIDATE_CAP:
                picks = np.linspace(0, positions.size - 1, _MAE_CANDIDATE_CAP).round().astype(int)
                positions = positions[np.unique(picks)]
            for pos in positions:
                left, right = ys[:pos + 1], ys[pos + 1:]
                cost = float(np.abs(left - np.median(left)).sum()
                             + np.abs(right - np.median(right)).sum())
                score[j, pos] = cost - impurity
    score = np.where(valid, score, np.inf)
    j, pos = divmod(int(np.argmin(score)), m - 1)
    gain = float(parent[j]) - float(score[j, pos])
    if not np.isfinite(score[j, pos]) or gain <= 0.0:
        return None
    return int(features[j]), float(0.5 * (sx[j, pos] + sx[j, pos + 1])), gain


def _candidate_features(n_features: int, max_features: int | None, rng) -> np.ndarray:
    if max_features is None or max_features >= n_features or rng is None:
        return np.arange(n_features)
    return np.sort(rng.choice(n_features, size=max_features, replace=False))


def grow_tree(X: np.ndarray, y: np.ndarray, *, criterion: str = "squared_error",
              max_depth: int | None = None, min_samples_leaf: int = 1,
              max_leaf_nodes: int | None = None, max_features: int | None = None,
              rng=None) -> _Node:
    """Grow one tree; ``max_leaf_nodes`` switches to best-first growth."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.size == 0:
        raise ConfigError("cannot grow a tree on empty data")
    best_first = max_leaf_nodes is not None
    if best_first:
        if max_depth is not None:
            raise ConfigError("set max_leaf_nodes or max_depth, not both")
        if max_leaf_nodes < 2:
            raise ConfigError("max_leaf_nodes must be >= 2")

    # Depth-first searches a node when it is popped, so splits (and the
    # forest's feature draws) run in pre-order. Best-first searches a node
    # when it is created and queues it on (-gain, creation order).
    frontier: list = []
    created = itertools.count()

    def add(node, order, depth):
        if not best_first:
            frontier.append((node, order, depth))
        elif (split := _best_split(X, y, order, criterion, min_samples_leaf,
                                   max_features, rng)) is not None:
            heapq.heappush(frontier, (-split[2], next(created), node, order, depth, split))

    root = _Node(_leaf_value(y, criterion))
    add(root, np.vstack([np.argsort(X.T, axis=1, kind="stable"), np.arange(y.size)]), 0)
    n_leaves = 1
    while frontier and (not best_first or n_leaves < max_leaf_nodes):
        if best_first:
            node, order, depth, split = heapq.heappop(frontier)[2:]
        else:
            node, order, depth = frontier.pop()
            if (max_depth is not None and depth >= max_depth) or (split := _best_split(
                    X, y, order, criterion, min_samples_leaf, max_features, rng)) is None:
                continue
        node.feature, node.threshold, _ = split
        goes_left = X[order, node.feature] <= node.threshold
        left, right = (order[side].reshape(order.shape[0], -1) for side in (goes_left, ~goes_left))
        node.left = _Node(_leaf_value(y[left[-1]], criterion))
        node.right = _Node(_leaf_value(y[right[-1]], criterion))
        n_leaves += 1
        children = [(node.left, left), (node.right, right)]
        for child, child_order in children if best_first else children[::-1]:
            add(child, child_order, depth + 1)
    return root


def predict_tree(root: _Node, X: np.ndarray, max_depth: int | None = None) -> np.ndarray:
    """Leaf values for the rows of ``X``; ``max_depth`` cuts the tree, so
    nodes at that depth answer with their own value."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    out = np.empty(X.shape[0])
    stack = [(root, np.arange(X.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf or depth == max_depth:
            out[idx] = node.value
        else:
            mask = X[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[mask], depth + 1))
            stack.append((node.right, idx[~mask], depth + 1))
    return out


class DecisionTreeRegressor(Regressor):
    """Single CART-style regression tree."""

    def __init__(self, config: TreeConfig | None = None):
        self.config = config or TreeConfig()
        self._root: _Node | None = None

    def fit(self, matrix) -> "DecisionTreeRegressor":
        cfg = self.config
        self._root = grow_tree(matrix.features, matrix.targets, criterion=cfg.criterion,
                               max_depth=cfg.max_depth,
                               min_samples_leaf=cfg.min_samples_leaf)
        return self

    def predict(self, features) -> Prediction:
        return Prediction(self.predict_path(features, [self.config.max_depth])[0])

    def predict_path(self, features, depths) -> list[np.ndarray]:
        """Raw predictions of the tree cut at each of ``depths``, none deeper
        than the fitted ``max_depth`` (``None`` is unlimited)."""
        if self._root is None:
            raise ConfigError("predict before fit")
        limit = self.config.max_depth
        for depth in depths:
            if limit is not None and (depth is None or depth > limit):
                raise ConfigError(f"max_depth={depth} is deeper than the fitted {limit}")
        return [predict_tree(self._root, features, depth) for depth in depths]
