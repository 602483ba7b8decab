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

- depth-limited (decision trees, depth-bounded boosting) searches a whole
  level per call;
- best-first up to a leaf budget (the boosting machine's) searches the two
  children of each split as they are created, and splits the queued node
  of largest gain, the earliest created on ties;
- the random forest's trees, each drawing every node's feature subset from
  its own stream in pre-order, grow in lockstep: a batch of trees shares one
  presorted block, each tree's rows in a slab of their own, and step ``i``
  searches and splits node ``i`` of every tree's pre-order in one call.

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

import bisect
import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..metrics import Prediction, Regressor

_MAE_CANDIDATE_CAP = 128
# A forest grows its trees in batches whose blocks, (features + 1) x rows
# int32 entries each, total at most _FOREST_ELEMENTS entries (4 MB); one
# lockstep call searches and splits nodes whose segments total at most
# _STEP_ELEMENTS entries, which bounds the call's temporaries.
_FOREST_ELEMENTS = 1_000_000
_STEP_ELEMENTS = 40_000

CRITERIA = ("squared_error", "absolute_error")


def _check_count(name: str, value) -> None:
    """ConfigError unless ``value`` is an integer (not a bool) of at least 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be int, not {value!r}")
    if value < 1:
        raise ConfigError(f"{name} must be >= 1")


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int | None = 20
    min_samples_leaf: int = 5
    criterion: str = "squared_error"

    def __post_init__(self):
        if self.max_depth is not None:
            _check_count("max_depth", self.max_depth)
        _check_count("min_samples_leaf", self.min_samples_leaf)
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


def _rows(ids: np.ndarray | None, picked: np.ndarray) -> np.ndarray:
    """The data rows that the block entries ``picked`` stand for; see _split_search."""
    return picked if ids is None else ids.take(picked)


def _split_search(columns: np.ndarray, y: np.ndarray, entries: list, criterion: str,
                  min_leaf: int, features: np.ndarray | None = None,
                  ids: np.ndarray | None = None) -> list:
    """Each entry's best ``(feature, threshold, gain)`` with positive gain, or None.

    An entry ``(node, block, start, size, depth)`` owns the segment
    ``block[:, start:start + size]``: row ``f`` lists the node's rows in
    ascending (value, row) order of column ``f``, the last row in row order.
    A block entry is a data row, or with ``ids`` the entry ``e`` stands for
    data row ``ids[e]``. Row ``f`` of ``columns`` holds feature ``f`` of every
    data row, then of a padding row; ``y`` holds every entry's target, then
    a zero one for the padding entry, which is the padding row. Row ``i`` of
    ``features`` lists entry ``i``'s features, ascending; None searches every
    feature for every entry. The entries of one size class, [2^c, 2^(c+1))
    rows, are scored as one (nodes x features, positions) array, each node
    padded to the class's largest size with the padding entry, which their
    shared block lists at its last position. The padding follows the real rows, so every
    running sum has the bits of a cumsum over the node alone.

    The first minimum score, feature-major, wins. Squared-error scores are
    the children's summed SSE from running sums, and the gain is taken from
    the chosen column's own totals. Absolute-error scores are negated gains,
    cost - impurity; rounding is symmetric, so the first minimum score is
    the first maximum gain, impurity - cost.
    """
    n_features, padding = len(columns), y.size - 1
    splits = [None] * len(entries)
    if n_features == 0:
        return splits
    if features is None:
        features = np.arange(n_features)[None]  # one row serves every node
    classes: dict = {}
    for i, (_, _, _, size, _) in enumerate(entries):
        classes.setdefault(size.bit_length(), []).append(i)
    for members in classes.values():
        f = features if len(features) == 1 else features[members]
        sizes = [entries[i][3] for i in members]
        width = m = max(sizes)
        block = entries[members[0]][1]
        if len(members) == 1:
            # a lone node reads its rows as one slice, with no padded index
            # gather; one-node calls are common, and without this fork (or
            # the one in _split_nodes) trees grew measurably slower
            start = entries[members[0]][2]
            rows = block[f[0], start:start + width][None]
        else:
            m = np.array(sizes)[:, None, None]
            ahead = np.arange(width)
            starts = np.array([entries[i][2] for i in members])[:, None]
            pos = np.where(ahead < m[:, 0], starts + ahead, padding)
            rows = block[f[:, :, None], pos[:, None, :]]
        shape = (len(members), f.shape[1], width - 1)
        sx = columns.take(_rows(ids, rows) + f[:, :, None] * columns.shape[1]) \
            .reshape(-1, width)
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
                 min_leaf: int, ids: np.ndarray | None = None) -> list:
    """Split each ``((node, block, start, size, depth), split)`` pair and
    return the entries of the children that can split further, left before
    right.

    Each segment is partitioned stably, left rows first, so a child keeps
    both orders. The children's segments always replace their parent's in
    its block, in place, so one search can read the block for many nodes.
    A child with fewer than ``2 * min_leaf`` rows or constant targets stays
    a leaf. The arguments read as _split_search's do."""
    block = chosen[0][0][1]
    if len(chosen) == 1:  # slices and scalars keep a lone split cheap
        (_, _, start, size, _), (feature, threshold, _) = chosen[0]
        flat = block[:, start:start + size].ravel()
        left, right = _partition(flat, columns[feature].take(_rows(ids, flat)) <= threshold,
                                 len(block))
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
        rows, side = flat[-len(positions):], np.zeros(y.size, dtype=bool)
        side[rows] = columns.take(_rows(ids, rows) + columns.shape[1]
                                  * np.array([split[0] for _, split in chosen]).repeat(sizes)) \
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


def _columns(X: np.ndarray) -> np.ndarray:
    """``X`` column by column, each column followed by the padding row's 0."""
    columns = np.zeros((X.shape[1], X.shape[0] + 1))
    columns[:, :-1] = X.T
    return columns


def _presort(columns: np.ndarray, row_sets, dtype=np.intp) -> tuple:
    """The presorted block, of ``dtype``, of the trees whose data rows are
    ``row_sets``, and the data row of each of its entries: tree ``t`` takes
    the slab of entries after those of trees ``0 .. t-1``, sorted within it,
    and one padding entry follows them all; see _split_search."""
    if min(len(rows) for rows in row_sets) == 0:
        raise ConfigError("cannot grow a tree on empty data")
    ids = np.concatenate([*row_sets, [columns.shape[1] - 1]])
    n = ids.size - 1
    order = np.empty((len(columns) + 1, n + 1), dtype=dtype)
    order[:, n] = n
    order[-1, :n] = np.arange(n)
    start = 0
    for rows in row_sets:
        end = start + len(rows)
        order[:-1, start:end] = np.argsort(columns[:, rows], axis=1, kind="stable")
        order[:-1, start:end] += start
        start = end
    return order, ids


def _root(y: np.ndarray, block: np.ndarray, start: int, size: int, criterion: str,
          min_leaf: int) -> tuple:
    """A tree's root over the segment ``start .. start + size - 1``, and the
    entries left to search: the root's own, unless it stays a leaf."""
    y_node = y[start:start + size]
    root = _Node(_leaf_value(y_node, criterion))
    grows = size >= 2 * min_leaf and y_node.max() != y_node.min()
    return root, [(root, block, start, size, 0)] if grows else []


def grow_tree(X: np.ndarray, y: np.ndarray, *, criterion: str = "squared_error",
              max_depth: int | None = None, min_samples_leaf: int = 1,
              max_leaf_nodes: int | None = None) -> _Node:
    """Grow one tree; ``max_leaf_nodes`` switches to best-first growth."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    best_first = max_leaf_nodes is not None
    if best_first:
        if max_depth is not None:
            raise ConfigError("set max_leaf_nodes or max_depth, not both")
        if max_leaf_nodes < 2:
            raise ConfigError("max_leaf_nodes must be >= 2")

    columns = _columns(X)
    order, _ = _presort(columns, [np.arange(y.size)])  # its entries are the rows
    y_pad = np.append(y, 0.0)

    def search(entries):
        return _split_search(columns, y_pad, entries, criterion, min_samples_leaf)

    def split(entries, splits):
        chosen = [(entry, s) for entry, s in zip(entries, splits) if s is not None]
        return _split_nodes(columns, y_pad, chosen, criterion, min_samples_leaf) if chosen else []

    # an entry is (node, block, start of its segment, size, depth)
    root, entries = _root(y_pad, order, 0, y.size, criterion, min_samples_leaf)
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
    else:
        while entries and (max_depth is None or entries[0][4] < max_depth):
            entries = split(entries, search(entries))
    return root


def _budgeted(items, cost, budget: int):
    """Consecutive runs of ``items``, read lazily: each as long as its
    items' costs total at most ``budget``, and at least one item long."""
    run, used = [], 0
    for item in items:
        spent = cost(item)
        if run and used + spent > budget:
            yield run
            run, used = [], 0
        run.append(item)
        used += spent
    if run:
        yield run


def grow_forest(X: np.ndarray, y: np.ndarray, row_sets, rngs, *, min_samples_leaf: int,
                max_features: int | None = None) -> list:
    """One squared-error tree of unlimited depth per row set of ``X``, each
    node searching ``max_features`` features drawn from its tree's rng
    (every feature, with no draw, when None or at least the width).
    ``row_sets`` and ``rngs`` are read lazily, a batch of trees at a time,
    and each batch grows in lockstep."""
    columns = _columns(np.asarray(X, dtype=np.float64))
    y = np.append(np.asarray(y, dtype=np.float64).ravel(), 0.0)
    roots = []
    for batch in _budgeted(zip(row_sets, rngs), lambda tree: len(tree[0]) * (len(columns) + 1),
                           _FOREST_ELEMENTS):
        roots += _grow_lockstep(columns, y, batch, min_samples_leaf, max_features)
    return roots


def _grow_lockstep(columns, y, batch, min_leaf, max_features) -> list:
    """Grow a batch of ``(rows, rng)`` trees in pre-order. Each step pops
    the next node off every tree's stack and searches and splits them in as
    few calls as ``_STEP_ELEMENTS`` allows."""
    row_sets, rngs = zip(*batch)
    # int32 halves a batch's block; a lone tree's level search is faster on intp
    order, ids = _presort(columns, row_sets, np.int32)
    y_pad = y.take(ids)  # the padding row's target is 0
    n_features = len(columns)
    draws = max_features is not None and max_features < n_features
    offsets = np.cumsum([0] + [len(r) for r in row_sets]).tolist()
    roots, stacks = [], []
    for start, end in zip(offsets, offsets[1:]):
        root, entries = _root(y_pad, order, start, end - start, "squared_error", min_leaf)
        roots.append(root)
        stacks.append(entries)
    live = [t for t, stack in enumerate(stacks) if stack]
    while live:
        popped = [(t, stacks[t].pop()) for t in live]
        for call in _budgeted(popped, lambda pair: pair[1][3] * len(order), _STEP_ELEMENTS):
            trees, entries = zip(*call)
            features = np.sort([rngs[t].choice(n_features, size=max_features, replace=False)
                                for t in trees], axis=1) if draws else None
            splits = _split_search(columns, y_pad, entries, "squared_error", min_leaf,
                                   features, ids)
            chosen = [(entry, s) for entry, s in zip(entries, splits) if s is not None]
            if chosen:
                # left above right on each tree's stack; a child's start names its tree
                for child in reversed(_split_nodes(columns, y_pad, chosen, "squared_error",
                                                   min_leaf, ids)):
                    stacks[bisect.bisect_right(offsets, child[2]) - 1].append(child)
        live = [t for t in live if stacks[t]]
    return roots


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
            if depth is not None:
                _check_count("max_depth", depth)
            if limit is not None and (depth is None or depth > limit):
                raise ConfigError(f"max_depth={depth} is deeper than the fitted {limit}")
        return predict_tree(self._root, queries, list(depths))
