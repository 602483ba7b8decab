"""Regression trees: greedy binary splits under squared or absolute error.

Split candidates are midpoints between consecutive distinct feature values,
or the lower value where the midpoint rounds up to the upper one. Each
column is sorted once per tree (CART presorting) into one array that holds
a row permutation per column; every node owns a contiguous segment of it,
and a split partitions the segment stably, left rows first. So every node
scans a column's rows in ascending (value, row) order. Bit-equal split
scores resolve to the lowest feature index, then the lowest threshold, so
refits are bit-reproducible. Scores equal only in exact arithmetic are
settled by rounding: complementary one-hot columns induce the same
partition but sum the rows in different orders, so either may win. A
depth-4 tree on ``synthetic_matrix(800, 0.05, 13)`` splits an 84-row node on
column 15 (``feature_category=outer``), not on its complement, column 14.

One search scores a list of nodes at once. The growth order per mode:

- depth-limited without feature draws (decision trees, depth-bounded
  boosting) searches a whole level per call;
- depth-limited with per-node feature draws (the random forest) searches
  one node per call, in pre-order, because each search draws its features
  from the tree's stream; searching a level at once would hand the same
  draws to other nodes and grow another tree;
- best-first up to a leaf budget (the boosting machine's) searches the two
  children of each split as they are created, and splits the queued node
  of largest gain, the earliest created on ties.

A node's search reads only its own rows and draws, so every order grows the
tree that searching node by node in pre-order grows, bit for bit.
Depth-limited growth reads ``max_depth`` only to stop, and every internal
node keeps its own leaf value, so ``predict_tree`` with a depth cut ``d`` on
a deeper tree predicts bit for bit what the tree grown to depth ``d`` does;
grid search scores a whole ``max_depth`` path from one fit and one walk.
Absolute-error split search caps the candidate thresholds per feature at
128 evenly spread positions once a node exceeds that many distinct values;
small nodes are searched exhaustively.
"""

from __future__ import annotations

import heapq
import itertools
import math
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
    # add.reduce / size has y.mean()'s bits, without its overhead
    if criterion == "absolute_error":
        return float(np.median(y))
    return float(np.add.reduce(y) / y.size)


def _segments(starts: list, sizes: list) -> np.ndarray:
    """The positions ``start .. start + size - 1`` of every segment, concatenated."""
    sizes = np.array(sizes)
    ends = sizes.cumsum()
    return np.repeat(np.array(starts) + sizes - ends, sizes) + np.arange(ends[-1])


def _partition(flat: np.ndarray, goes_left: np.ndarray, n_rows: int) -> tuple:
    """The (n_rows, -1) rows of ``flat``, left entries only and right entries
    only, each in its order."""
    return tuple(flat.compress(keep).reshape(n_rows, -1) for keep in (goes_left, ~goes_left))


def _split_search(columns: np.ndarray, y: np.ndarray, entries: list, criterion: str,
                  min_leaf: int, max_features: int | None, rng) -> list:
    """Each entry's best ``(feature, threshold, gain)`` with positive gain, or None.

    An entry ``(node, block, start, size, depth)`` owns the segment
    ``block[:, start:start + size]``: row ``f`` lists the node's rows in
    ascending (value, row) order of column ``f``, the last row in row order.
    ``columns`` holds the features column after column; it and ``y`` end in
    a padding row with a zero target. Every entry draws its feature subset,
    in entry order. The entries of one size class, [2^c, 2^(c+1)) rows, are
    scored as one (nodes x features, positions) array, each node padded to
    the class's largest size with the padding row, which their shared block
    lists at its last position. The padding follows the real rows, so every
    running sum has the bits of a cumsum over the node alone.

    The first minimum score, feature-major, wins. Squared-error scores are
    the children's summed SSE from running sums, and the gain is taken from
    the chosen column's own totals. Absolute-error scores are negated gains,
    cost - impurity; rounding is symmetric, so the first minimum score is
    the first maximum gain, impurity - cost.
    """
    n_features, padding = columns.size // y.size, y.size - 1
    splits = [None] * len(entries)
    if n_features == 0:
        return splits
    if max_features is None or max_features >= n_features or rng is None:
        features = np.arange(n_features)[None]  # one row serves every node
    else:
        features = np.empty((len(entries), max_features), dtype=np.intp)
        for drawn in features:
            drawn[:] = np.sort(rng.choice(n_features, size=max_features, replace=False))
    classes: dict = {}
    for i, (_, _, _, size, _) in enumerate(entries):
        classes.setdefault(size.bit_length(), []).append(i)
    for members in classes.values():
        f = features if len(features) == 1 else features[members]
        sizes = [entries[i][3] for i in members]
        width = m = max(sizes)
        block = entries[members[0]][1]
        if len(members) == 1:
            start = entries[members[0]][2]
            rows = block[f[0], start:start + width][None]
        else:
            m = np.array(sizes)[:, None, None]
            ahead = np.arange(width)
            starts = np.array([entries[i][2] for i in members])[:, None]
            pos = np.where(ahead < m[:, 0], starts + ahead, padding)
            rows = block[f[:, :, None], pos[:, None, :]]
        shape = (len(members), f.shape[1], width - 1)
        sx = columns.take(rows + f[:, :, None] * y.size).reshape(-1, width)
        sy = y.take(rows).reshape(-1, width)
        counts = np.arange(1, width, dtype=np.float64)
        rest = m - counts
        edges = (counts >= min_leaf) & (rest >= min_leaf)
        valid = ((sx[:, 1:] > sx[:, :-1]).reshape(shape) & edges).reshape(-1, width - 1)
        if criterion == "squared_error":
            csum, csum2 = np.cumsum(sy, axis=1), np.cumsum(sy ** 2, axis=1)
            total, total2 = csum[:, -1:], csum2[:, -1:]
            csum, csum2 = csum[:, :-1], csum2[:, :-1]
            # padded positions divide by 1
            right = ((total - csum) ** 2).reshape(shape) / np.maximum(rest, 1.0)
            score = (csum2 - csum ** 2 / counts) \
                + ((total2 - csum2) - right.reshape(-1, width - 1))
        else:
            score = np.full(valid.shape, np.inf)
            for k, i in enumerate(members):
                _, _, start, size, _ = entries[i]
                y_node = y[block[-1, start:start + size]]
                impurity = float(np.abs(y_node - np.median(y_node)).sum())
                for row in range(k * shape[1], (k + 1) * shape[1]):
                    ys = sy[row, :size]
                    positions = np.flatnonzero(valid[row])
                    if positions.size > _MAE_CANDIDATE_CAP:
                        picks = np.linspace(0, positions.size - 1,
                                            _MAE_CANDIDATE_CAP).round().astype(int)
                        positions = positions[np.unique(picks)]
                    for pos in positions:
                        left, right = ys[:pos + 1], ys[pos + 1:]
                        cost = float(np.abs(left - np.median(left)).sum()
                                     + np.abs(right - np.median(right)).sum())
                        score[row, pos] = cost - impurity
        score = np.where(valid, score, np.inf).reshape(len(members), -1)
        for k, (i, best) in enumerate(zip(members, np.argmin(score, axis=1).tolist())):
            j, pos = divmod(best, width - 1)
            row, lowest = k * shape[1] + j, score.item(k, best)
            if criterion == "squared_error":  # the chosen column's parent SSE
                t = total.item(row)
                parent = total2.item(row) - t * t / sizes[k]
            else:
                parent = 0.0
            gain = parent - lowest
            if not math.isfinite(lowest) or gain <= 0.0:
                continue
            # the midpoint of adjacent floats can round up to the upper one,
            # and that of huge ones overflows; the lower one splits the same rows
            lo, hi = sx.item(row, pos), sx.item(row, pos + 1)
            mid = 0.5 * (lo + hi)
            splits[i] = (f.item(k % len(f), j), mid if lo <= mid < hi else lo, gain)
    return splits


def _split_nodes(columns: np.ndarray, y: np.ndarray, chosen: list, criterion: str,
                 min_leaf: int) -> list:
    """Split each ``((node, block, start, size, depth), split)`` pair and
    return the entries of the children that can split further, left before
    right.

    Each segment is partitioned stably, left rows first, so a child keeps
    both orders. The children's segments always replace their parent's in
    its block, in place, so one search can read the block for many nodes.
    A child with fewer than ``2 * min_leaf`` rows or constant targets stays
    a leaf."""
    stride = y.size
    block = chosen[0][0][1]
    if len(chosen) == 1:  # slices and scalars keep a lone split cheap
        (_, _, start, size, _), (feature, threshold, _) = chosen[0]
        flat = block[:, start:start + size].ravel()
        left, right = _partition(flat, columns[feature * stride:(feature + 1) * stride].take(flat)
                                 <= threshold, len(block))
        n_left = [left.shape[1]]
        block[:, start:start + n_left[0]] = left
        block[:, start + n_left[0]:start + size] = right
        places = [(block, start), (block, start + n_left[0])]
        y_children = y.take(np.concatenate((left[-1], right[-1])))
    else:  # each row's side, looked up for every column
        starts = [entry[2] for entry, _ in chosen]
        sizes = [entry[3] for entry, _ in chosen]
        positions = _segments(starts, sizes)
        flat = block[:, positions].ravel()
        rows, side = flat[-len(positions):], np.zeros(stride, dtype=bool)
        side[rows] = columns.take(rows + stride * np.array([split[0] for _, split in chosen])
                                  .repeat(sizes)) \
            <= np.array([split[1] for _, split in chosen]).repeat(sizes)
        left, right = _partition(flat, side.take(flat), len(block))
        n_left = np.add.reduceat(side.take(rows), np.cumsum(sizes) - sizes).tolist()
        rights = [a + n for a, n in zip(starts, n_left)]
        block[:, _segments(starts, n_left)] = left
        block[:, _segments(rights, [m - n for m, n in zip(sizes, n_left)])] = right
        places = [(block, a) for pair in zip(starts, rights) for a in pair]
        y_children = y.take(block[-1, positions])

    # the children's rows, left, right, left, ..., in row order
    bounds, offset = [], 0
    for (entry, _), n in zip(chosen, n_left):
        bounds += (offset, offset + n)
        offset += entry[3]
    spread = (np.maximum.reduceat(y_children, bounds)
              != np.minimum.reduceat(y_children, bounds)).tolist()
    bounds.append(offset)
    children = []
    for i, ((node, _, _, _, depth), (f, t, _)) in enumerate(chosen):
        node.feature, node.threshold = f, t
        node.left, node.right = (_Node(_leaf_value(y_children[bounds[c]:bounds[c + 1]], criterion))
                                 for c in (2 * i, 2 * i + 1))
        for c, child in ((2 * i, node.left), (2 * i + 1, node.right)):
            size = bounds[c + 1] - bounds[c]
            if spread[c] and size >= 2 * min_leaf:
                children.append((child, *places[c], size, depth + 1))
    return children


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

    n = y.size
    # column-major features, with one padding row after the data; see _split_search
    columns, y_pad = np.vstack([X, np.zeros(X.shape[1])]).T.ravel(), np.append(y, 0.0)
    order = np.full((X.shape[1] + 1, n + 1), n)
    order[:-1, :n] = np.argsort(X.T, axis=1, kind="stable")
    order[-1, :n] = np.arange(n)

    # per-node feature draws follow pre-order, so such trees search one node at a time
    pre_order = not best_first and rng is not None and max_features is not None \
        and max_features < X.shape[1]

    def search(entries):
        return _split_search(columns, y_pad, entries, criterion, min_samples_leaf,
                             max_features, rng)

    def split(entries, splits):
        chosen = [(entry, s) for entry, s in zip(entries, splits) if s is not None]
        return _split_nodes(columns, y_pad, chosen, criterion, min_samples_leaf) if chosen else []

    # an entry is (node, block, start of its segment, size, depth)
    root = _Node(_leaf_value(y, criterion))
    grows = y.size >= 2 * min_samples_leaf and y.max() != y.min()
    entries = [(root, order, 0, y.size, 0)] if grows else []
    if best_first:
        # a node is searched when it is created and queued on
        # (-gain, creation order)
        queue: list = []
        created = itertools.count()
        for _ in range(max_leaf_nodes - 1):
            for entry, s in zip(entries, search(entries)):
                if s is not None:
                    heapq.heappush(queue, (-s[2], next(created), entry, s))
            if not queue:
                break
            _, _, entry, s = heapq.heappop(queue)
            entries = split([entry], [s])
    elif pre_order:
        while entries:
            entry = entries.pop()
            if max_depth is None or entry[4] < max_depth:
                entries.extend(reversed(split([entry], search([entry]))))
    else:
        while entries and (max_depth is None or entries[0][4] < max_depth):
            entries = split(entries, search(entries))
    return root


def predict_tree(root: _Node, X: np.ndarray,
                 max_depth: int | None | list = None) -> np.ndarray | list:
    """Leaf values for the rows of ``X``; ``max_depth`` cuts the tree, so
    nodes at that depth answer with their own value. A list of cuts gives
    one array per cut, all from one walk."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    cuts = list(max_depth) if isinstance(max_depth, (list, tuple)) else [max_depth]
    outs = [np.empty(X.shape[0]) for _ in cuts]
    # a node at depth d answers the cuts at d; a leaf also every deeper cut
    at_depth: dict = {}
    for cut, out in zip(cuts, outs):
        at_depth.setdefault(cut, []).append(out)
    from_leaf: dict = {}
    deepest = None if None in cuts else max(cuts)
    stack = [(root, np.arange(X.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            if depth not in from_leaf:
                from_leaf[depth] = [out for cut, out in zip(cuts, outs)
                                    if cut is None or cut >= depth]
            for out in from_leaf[depth]:
                out[idx] = node.value
            continue
        for out in at_depth.get(depth, ()):
            out[idx] = node.value
        if depth != deepest:
            mask = X[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[mask], depth + 1))
            stack.append((node.right, idx[~mask], depth + 1))
    return outs if isinstance(max_depth, (list, tuple)) else outs[0]


class DecisionTreeRegressor(Regressor):
    """Single CART-style regression tree."""

    def __init__(self, config: TreeConfig | None = None):
        self.config = config or TreeConfig()

    def fit(self, matrix) -> "DecisionTreeRegressor":
        cfg = self.config
        self._root = grow_tree(matrix.features, matrix.targets, criterion=cfg.criterion,
                               max_depth=cfg.max_depth,
                               min_samples_leaf=cfg.min_samples_leaf)
        self.width = matrix.width
        return self

    def predict(self, features) -> Prediction:
        return Prediction(self.predict_path(features, [self.config.max_depth])[0])

    def predict_path(self, features, depths) -> list[np.ndarray]:
        """Raw predictions of the tree cut at each of ``depths``, none deeper
        than the fitted ``max_depth`` (``None`` is unlimited)."""
        queries = self.queries(features)
        limit = self.config.max_depth
        for depth in depths:
            if limit is not None and (depth is None or depth > limit):
                raise ConfigError(f"max_depth={depth} is deeper than the fitted {limit}")
        return predict_tree(self._root, queries, list(depths))
