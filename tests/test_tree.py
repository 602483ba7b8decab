import numpy as np
import pytest

from dimuq import synthetic_matrix
from dimuq.errors import ConfigError
from dimuq.models import DecisionTreeRegressor, ForestConfig, RandomForestRegressor, TreeConfig
from dimuq.models.tree import grow_tree, predict_tree

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
