import numpy as np
import pytest

from dimuq import synthetic_matrix
from dimuq.data import apply_scaler, fit_scaler
from dimuq.errors import ConfigError
from dimuq.models import DecisionTreeRegressor, ForestConfig, RandomForestRegressor, TreeConfig
from dimuq.models import tree as tree_module
from dimuq.models.tree import grow_forest, grow_tree, predict_tree

from helpers import matrix_from_arrays


def brute_force_depth1(X, y, criterion):
    """Exhaustive single-split search: best (feature, threshold, leaf values)."""
    center = np.median if criterion == "absolute_error" else np.mean
    cost_of = (lambda v: np.abs(v - np.median(v)).sum()) \
        if criterion == "absolute_error" else (lambda v: ((v - v.mean()) ** 2).sum())
    best = None
    for f in range(X.shape[1]):
        values = np.unique(X[:, f])
        for lo, hi in zip(values, values[1:]):
            threshold = 0.5 * (lo + hi)
            mask = X[:, f] <= threshold
            cost = cost_of(y[mask]) + cost_of(y[~mask])
            if best is None or cost < best[0] - 1e-12:
                best = (cost, f, threshold, center(y[mask]), center(y[~mask]))
    return best


class TestDecisionTree:
    def test_constant_targets_single_leaf(self):
        train = matrix_from_arrays([[0.0], [1.0], [2.0]], [0.7, 0.7, 0.7])
        model = DecisionTreeRegressor(TreeConfig(max_depth=5, min_samples_leaf=1)).fit(train)
        np.testing.assert_allclose(model.predict([[0.5], [9.0]]).values, 0.7, rtol=1e-15)

    def test_step_function_depth1_split(self):
        train = matrix_from_arrays([[0.0], [1.0], [2.0], [3.0]], [0.0, 0.0, 1.0, 1.0])
        model = DecisionTreeRegressor(TreeConfig(max_depth=1, min_samples_leaf=1)).fit(train)
        root = model._root
        assert 1.0 < root.threshold < 2.0
        assert model.predict([[0.0]]).values[0] == 0.0
        assert model.predict([[3.0]]).values[0] == 1.0

    def test_min_samples_leaf_n_gives_global_mean(self):
        y = np.array([0.1, 0.4, 0.9, 1.2])
        train = matrix_from_arrays([[0.0], [1.0], [2.0], [3.0]], y)
        model = DecisionTreeRegressor(TreeConfig(max_depth=5, min_samples_leaf=4)).fit(train)
        np.testing.assert_allclose(model.predict([[1.5]]).values, y.mean())

    @pytest.mark.parametrize("criterion", ["squared_error", "absolute_error"])
    def test_depth1_matches_exhaustive_search(self, criterion):
        rng = np.random.default_rng(11)
        X = rng.uniform(-1, 1, size=(10, 2))
        y = rng.normal(size=10)
        root = grow_tree(X, y, criterion=criterion, max_depth=1, min_samples_leaf=1)
        cost, f, threshold, left, right = brute_force_depth1(X, y, criterion)
        assert root.feature == f
        assert root.threshold == pytest.approx(threshold)
        assert root.left.value == pytest.approx(left)
        assert root.right.value == pytest.approx(right)

    def test_absolute_error_leaf_predicts_median(self):
        y = np.array([0.0, 0.0, 10.0])
        train = matrix_from_arrays([[0.0], [0.0], [0.0]], y)
        model = DecisionTreeRegressor(
            TreeConfig(max_depth=3, min_samples_leaf=1, criterion="absolute_error")
        ).fit(train)
        assert model.predict([[0.0]]).values[0] == np.median(y)

    @pytest.mark.parametrize("criterion", ["squared_error", "absolute_error"])
    def test_monotone_feature_transform_leaves_predictions_unchanged(self, criterion):
        rng = np.random.default_rng(12)
        X = rng.uniform(0.1, 2.0, size=(9, 2))
        y = rng.normal(size=9)
        config = TreeConfig(max_depth=3, min_samples_leaf=1, criterion=criterion)
        base = DecisionTreeRegressor(config).fit(matrix_from_arrays(X, y))
        transformed = X.copy()
        transformed[:, 0] = np.exp(transformed[:, 0])  # strictly monotone
        refit = DecisionTreeRegressor(config).fit(matrix_from_arrays(transformed, y))
        np.testing.assert_allclose(base.predict(X).values,
                                   refit.predict(transformed).values, rtol=1e-12)

    def test_best_first_growth_respects_leaf_budget(self):
        rng = np.random.default_rng(13)
        X = rng.uniform(-1, 1, size=(60, 3))
        y = rng.normal(size=60)
        root = grow_tree(X, y, criterion="squared_error", max_leaf_nodes=5,
                         min_samples_leaf=1)

        def count_leaves(node):
            if node.is_leaf:
                return 1
            return count_leaves(node.left) + count_leaves(node.right)

        assert count_leaves(root) == 5

    def test_best_first_splits_largest_gain_first(self):
        # one feature separates two far clusters, another a small offset
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0.0, 0.5, 10.0, 10.5])
        root = grow_tree(X, y, criterion="squared_error", max_leaf_nodes=2,
                         min_samples_leaf=1)
        assert root.feature == 0  # the 10-unit jump wins over the 0.5 one

    def test_conflicting_growth_bounds_rejected(self):
        with pytest.raises(ConfigError):
            grow_tree(np.zeros((4, 1)), np.arange(4.0), max_depth=2, max_leaf_nodes=3)

    def test_matches_plain_loop_greedy_reference(self):
        # a slow loop-based greedy mirror with the same tie rules; the
        # vectorized builder must agree on every prediction
        def reference_predict(X, y, queries, max_depth, min_leaf):
            def sse(v):
                return float(((v - v.mean()) ** 2).sum())

            def best_split(Xn, yn):
                best = None
                for f in range(Xn.shape[1]):
                    values = np.unique(Xn[:, f])
                    for lo, hi in zip(values, values[1:]):
                        threshold = 0.5 * (lo + hi)
                        mask = Xn[:, f] <= threshold
                        if mask.sum() < min_leaf or (~mask).sum() < min_leaf:
                            continue
                        gain = sse(yn) - sse(yn[mask]) - sse(yn[~mask])
                        if best is None or gain > best[0] + 1e-12:
                            best = (gain, f, threshold)
                return best

            def grow(Xn, yn, depth):
                if depth >= max_depth or yn.size < 2 * min_leaf or np.all(yn == yn[0]):
                    return float(yn.mean())
                split = best_split(Xn, yn)
                if split is None or split[0] <= 0:
                    return float(yn.mean())
                _, f, threshold = split
                mask = Xn[:, f] <= threshold
                return (f, threshold, grow(Xn[mask], yn[mask], depth + 1),
                        grow(Xn[~mask], yn[~mask], depth + 1))

            def walk(node, x):
                while isinstance(node, tuple):
                    f, threshold, left, right = node
                    node = left if x[f] <= threshold else right
                return node

            tree = grow(X, y, 0)
            return np.array([walk(tree, q) for q in queries])

        rng = np.random.default_rng(14)
        X = rng.uniform(-1, 1, size=(10, 2))
        y = rng.normal(size=10)
        queries = rng.uniform(-1, 1, size=(20, 2))
        root = grow_tree(X, y, criterion="squared_error", max_depth=3, min_samples_leaf=2)
        expected = reference_predict(X, y, queries, max_depth=3, min_leaf=2)
        np.testing.assert_allclose(predict_tree(root, queries), expected, rtol=1e-12)


# Predictions pinned to the last bit on a fixed fixture: the squared-error
# score's operation order, the absolute-error candidate cap and the forest's
# per-node feature draws all show in them.
PINNED_PREDICTIONS = {
    "depth_first": ["0x1.45989e023fe0ap-5", "-0x1.d259a028b01f6p-5", "-0x1.05daca71a38f1p-3",
                    "0x1.3a67e2058607fp-4", "-0x1.24776ec20673bp-5", "0x1.2e52224c82e03p-5"],
    "absolute_error": ["0x1.cc80410abc4d5p-6", "-0x1.d38dac4e0a600p-8",
                       "-0x1.ee3abc4267824p-4", "0x1.cc80410abc4d5p-6",
                       "0x1.8275295c126bfp-5", "0x1.3f4cead9b6078p-4"],
    "leaf_budget": ["0x1.b7d37fec105b9p-5", "-0x1.417784ec41319p-5", "-0x1.2bbfaf7a5b528p-3",
                    "0x1.b7d37fec105b9p-5", "0x1.5876f4f6311e4p-7", "0x1.541ba0706d211p-4"],
    "forest": ["-0x1.22f1997bd6ccep-6", "0x1.b15da4b0f745ap-9", "0x1.afa40533e1c78p-5",
               "0x1.2f3c81e501c26p-5", "-0x1.d72ed4431b64ep-6", "0x1.3ed9cbc405248p-4"],
}


@pytest.mark.parametrize("model", sorted(PINNED_PREDICTIONS))
def test_predictions_match_pinned_bits(model):
    train = synthetic_matrix(300, 0.05, 8)
    queries = synthetic_matrix(6, 0.05, 30).features
    X, y = train.features, train.targets
    if model == "forest":
        forest = RandomForestRegressor(ForestConfig(n_estimators=5, max_features=3)).fit(train)
        predicted = forest.predict(queries).values
    else:
        settings = {"depth_first": dict(max_depth=8, min_samples_leaf=2),
                    "absolute_error": dict(criterion="absolute_error", max_depth=4,
                                           min_samples_leaf=2),
                    "leaf_budget": dict(max_leaf_nodes=12)}[model]
        predicted = predict_tree(grow_tree(X, y, **settings), queries)
    assert [float(v).hex() for v in predicted] == PINNED_PREDICTIONS[model]


@pytest.mark.parametrize("min_samples_leaf", [1, 5])
def test_depth_cut_equals_tree_grown_to_that_depth(min_samples_leaf):
    queries = synthetic_matrix(40, 0.05, 31).features
    for seed in (3, 11, 19):
        train = synthetic_matrix(200, 0.05, seed)
        X, y = train.features, train.targets
        deep = grow_tree(X, y, max_depth=None, min_samples_leaf=min_samples_leaf)
        for depth in range(1, 13):
            grown = grow_tree(X, y, max_depth=depth, min_samples_leaf=min_samples_leaf)
            for rows in (X, queries):
                assert [float(v).hex() for v in predict_tree(deep, rows, depth)] \
                    == [float(v).hex() for v in predict_tree(grown, rows)]


def test_depth_path_rejects_depths_beyond_the_fit():
    model = DecisionTreeRegressor(TreeConfig(max_depth=4)).fit(synthetic_matrix(60, 0.05, 3))
    queries = synthetic_matrix(5, 0.05, 4).features
    assert len(model.predict_path(queries, [4, 2, 1])) == 3
    for depth in (5, None):
        with pytest.raises(ConfigError, match="deeper than the fitted 4"):
            model.predict_path(queries, [depth])


def test_depth_path_answers_every_cut_from_one_walk():
    train = synthetic_matrix(150, 0.05, 5)
    queries = synthetic_matrix(30, 0.05, 6).features
    root = grow_tree(train.features, train.targets, max_depth=None, min_samples_leaf=1)
    cuts = [None, 9, 1, 4, 0, 4]
    together = predict_tree(root, queries, cuts)
    for cut, values in zip(cuts, together):
        assert [float(v).hex() for v in values] \
            == [float(v).hex() for v in predict_tree(root, queries, cut)]


@pytest.mark.parametrize("lower, upper", [(1.0 - 2.0 ** -53, 1.0), (1e308, 1.7e308)])
def test_threshold_never_reaches_the_upper_value(lower, upper):
    # the midpoint of adjacent floats rounds up to the upper one, and that of
    # huge ones overflows to inf; either would send every row left
    X = np.array([[lower], [lower], [upper], [upper]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    root = grow_tree(X, y, max_depth=1, min_samples_leaf=1)
    assert lower <= root.threshold < upper
    assert predict_tree(root, X).tolist() == [0.0, 0.0, 1.0, 1.0]


@pytest.mark.xfail(strict=True, reason="the squared-error score uses raw running sums of "
                   "y and y**2, which lose digits to a large target offset")
def test_tree_predictions_are_translation_invariant():
    train = synthetic_matrix(400, 0.05, 7)
    X, y = train.features, train.targets
    rmses = []
    for offset in (0.0, 1e6):
        root = grow_tree(X, y + offset, max_depth=4, min_samples_leaf=1)
        rmses.append(float(np.sqrt(np.mean((predict_tree(root, X) - offset - y) ** 2))))
    # 0.06086 mm unshifted, 0.06794 mm shifted
    assert rmses[1] == pytest.approx(rmses[0], rel=1e-6)


# --- oracle: node-by-node growth in pre-order, one search per node --------

class _RefNode:
    def __init__(self, value):
        self.feature, self.threshold, self.value = -1, 0.0, value
        self.left = self.right = None


def _reference_split(X, y, order, criterion, min_leaf, max_features, rng):
    y_node = y[order[-1]]
    m = y_node.size
    if m < 2 * min_leaf or np.all(y_node == y_node[0]):
        return None
    n_features = X.shape[1]
    if max_features is None or max_features >= n_features or rng is None:
        features = np.arange(n_features)
    else:
        features = np.sort(rng.choice(n_features, size=max_features, replace=False))
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
            if positions.size > 128:
                picks = np.linspace(0, positions.size - 1, 128).round().astype(int)
                positions = positions[np.unique(picks)]
            for pos in positions:
                left, right = ys[:pos + 1], ys[pos + 1:]
                score[j, pos] = float(np.abs(left - np.median(left)).sum()
                                      + np.abs(right - np.median(right)).sum()) - impurity
    score = np.where(valid, score, np.inf)
    j, pos = divmod(int(np.argmin(score)), m - 1)
    gain = float(parent[j]) - float(score[j, pos])
    if not np.isfinite(score[j, pos]) or gain <= 0.0:
        return None
    lo, hi = float(sx[j, pos]), float(sx[j, pos + 1])
    mid = 0.5 * (lo + hi)
    return int(features[j]), mid if lo <= mid < hi else lo, gain


def _reference_grow(X, y, criterion="squared_error", max_depth=None, min_samples_leaf=1,
                    max_leaf_nodes=None, max_features=None, rng=None):
    """Each node searched alone: depth-limited in pre-order, best-first on
    (-gain, creation order); each child's rows as its own sorted arrays."""
    import heapq
    import itertools

    def leaf(rows):
        if criterion == "absolute_error":
            return float(np.median(y[rows]))
        return float(y[rows].mean())

    def search(order):
        return _reference_split(X, y, order, criterion, min_samples_leaf, max_features, rng)

    root = _RefNode(leaf(np.arange(y.size)))
    frontier, created, n_leaves = [], itertools.count(), 1
    start = (root, np.vstack([np.argsort(X.T, axis=1, kind="stable"), np.arange(y.size)]), 0)
    if max_leaf_nodes is None:
        frontier.append(start)
    elif (split := search(start[1])) is not None:
        frontier.append((-split[2], next(created), *start, split))
    while frontier and (max_leaf_nodes is None or n_leaves < max_leaf_nodes):
        if max_leaf_nodes is None:
            node, order, depth = frontier.pop()
            if (max_depth is not None and depth >= max_depth) or (split := search(order)) is None:
                continue
        else:
            node, order, depth, split = heapq.heappop(frontier)[2:]
        node.feature, node.threshold = split[0], split[1]
        goes_left = X[order, node.feature] <= node.threshold
        left, right = (order[side].reshape(order.shape[0], -1) for side in (goes_left, ~goes_left))
        node.left, node.right = _RefNode(leaf(left[-1])), _RefNode(leaf(right[-1]))
        n_leaves += 1
        children = [(node.left, left, depth + 1), (node.right, right, depth + 1)]
        if max_leaf_nodes is None:
            frontier.extend(children[::-1])
        else:
            for child in children:
                if (split := search(child[1])) is not None:
                    heapq.heappush(frontier, (-split[2], next(created), *child, split))
    return root


def _nodes(root):
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        split = node.left is not None
        out.append((node.feature if split else None,
                    float(node.threshold).hex() if split else None, float(node.value).hex()))
        if split:
            stack += [node.right, node.left]
    return out


def _sweep_shaped(n, seed):
    """Rows as a sweep fold sees them: z-scored on their own statistics."""
    train = synthetic_matrix(n, 0.05, seed)
    return apply_scaler(fit_scaler(train), train)


@pytest.mark.parametrize("n, seed", [(51, 3), (115, 4), (460, 5)])
@pytest.mark.parametrize("min_samples_leaf", [1, 5])
def test_grows_the_trees_of_the_node_by_node_oracle(n, seed, min_samples_leaf):
    train = _sweep_shaped(n, seed)
    X, y = train.features, train.targets
    for max_depth in (4, 12, None):
        settings = dict(max_depth=max_depth, min_samples_leaf=min_samples_leaf)
        assert _nodes(grow_tree(X, y, **settings)) == _nodes(_reference_grow(X, y, **settings))


@pytest.mark.parametrize("mode", ["forest", "leaf_budget", "absolute_error"])
def test_other_growth_modes_match_the_oracle(mode):
    train = _sweep_shaped(120, 9)
    X, y = train.features, train.targets
    settings = {"forest": dict(min_samples_leaf=3, max_features=3),
                "leaf_budget": dict(max_leaf_nodes=12),
                "absolute_error": dict(criterion="absolute_error", max_depth=3,
                                       min_samples_leaf=2)}[mode]
    if mode == "forest":
        ours = grow_forest(X, y, [np.arange(y.size)], [np.random.default_rng(17)], **settings)[0]
        reference = _reference_grow(X, y, rng=np.random.default_rng(17), **settings)
    else:
        ours, reference = grow_tree(X, y, **settings), _reference_grow(X, y, **settings)
    assert _nodes(ours) == _nodes(reference)


def _forest_case(n_trees, seed, n=90, bootstrap=True, constant_tree=None):
    """The forest's data, row sets and rngs, each rng past its bootstrap
    draw, and for the oracle a twin of each rng in the same state."""
    train = _sweep_shaped(n, seed)
    X, y = train.features, train.targets
    row_sets, rngs, twins = [], [], []
    for t in range(n_trees):
        rng, twin = (np.random.default_rng(np.random.SeedSequence([seed, t])) for _ in "ab")
        rows = np.arange(n)
        if bootstrap:
            rows = rng.integers(0, n, size=n)
            twin.integers(0, n, size=n)
        if t == constant_tree:  # one row n times: constant targets
            rows = np.full(n, rows[0])
        row_sets.append(rows)
        rngs.append(rng)
        twins.append(twin)
    return X, y, row_sets, rngs, twins


def _batch_sizes(monkeypatch, trees_per_batch, width, n=90):
    """Set the forest budget to ``trees_per_batch`` trees of ``n`` rows, and
    record the size of every batch grown."""
    monkeypatch.setattr(tree_module, "_FOREST_ELEMENTS", trees_per_batch * n * (width + 1))
    sizes, grow = [], tree_module._grow_lockstep

    def recorded(columns, y, batch, *args):
        sizes.append(len(batch))
        return grow(columns, y, batch, *args)
    monkeypatch.setattr(tree_module, "_grow_lockstep", recorded)
    return sizes


# batches of 3 trees; max_features 16 is the whole width, so no node draws
@pytest.mark.parametrize("n_trees, bootstrap, max_features, constant_tree", [
    (7, True, 3, None), (5, False, 4, None), (6, True, 16, None), (4, True, 2, 1)])
def test_lockstep_forest_grows_each_tree_of_the_oracle(n_trees, bootstrap, max_features,
                                                       constant_tree, monkeypatch):
    X, y, row_sets, rngs, twins = _forest_case(n_trees, 11, bootstrap=bootstrap,
                                               constant_tree=constant_tree)
    sizes = _batch_sizes(monkeypatch, 3, X.shape[1])
    forest = grow_forest(X, y, row_sets, rngs, min_samples_leaf=3, max_features=max_features)
    assert sizes == [3] * (n_trees // 3) + [n_trees % 3] * (n_trees % 3 > 0)
    assert len(forest) == n_trees
    for root, rows, twin in zip(forest, row_sets, twins):
        reference = _reference_grow(X[rows], y[rows], min_samples_leaf=3,
                                    max_features=max_features, rng=twin)
        assert _nodes(root) == _nodes(reference)
    if constant_tree is not None:
        assert forest[constant_tree].is_leaf


def test_lockstep_forest_does_not_depend_on_the_batch_size(monkeypatch):
    grown = {}
    for trees_per_batch, expected in ((1, [1] * 7), (2, [2, 2, 2, 1]), (3, [3, 3, 1]), (7, [7])):
        X, y, row_sets, rngs, _ = _forest_case(7, 12)
        with monkeypatch.context() as patch:
            sizes = _batch_sizes(patch, trees_per_batch, X.shape[1])
            forest = grow_forest(X, y, row_sets, rngs, min_samples_leaf=2, max_features=3)
        assert sizes == expected
        grown[trees_per_batch] = [_nodes(root) for root in forest]
    assert grown[1] == grown[2] == grown[3] == grown[7]


@pytest.mark.parametrize("case", ["duplicate_rows", "constant_columns", "equal_targets",
                                  "adjacent_floats"])
def test_edge_cases_match_the_oracle(case):
    rng = np.random.default_rng(21)
    X = rng.integers(0, 3, size=(40, 4)).astype(np.float64)
    y = rng.normal(size=40)
    if case == "duplicate_rows":
        X, y = np.vstack([X, X[:15]]), np.concatenate([y, y[:15] + 0.5])
    elif case == "constant_columns":
        X[:, [0, 2]] = 7.0
    elif case == "equal_targets":
        y[:] = 0.25
    else:
        X[:, 1] = np.where(X[:, 1] > 0, 1.0, 1.0 - 2.0 ** -53)
    for settings in (dict(max_depth=None, min_samples_leaf=1),
                     dict(max_depth=3, min_samples_leaf=4), dict(max_leaf_nodes=6)):
        assert _nodes(grow_tree(X, y, **settings)) == _nodes(_reference_grow(X, y, **settings))
