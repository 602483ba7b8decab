import numpy as np
import pytest

from dimuq import rmse, synthetic_matrix
from dimuq.errors import ConfigError
from dimuq.models import (
    DecisionTreeRegressor,
    ForestConfig,
    RandomForestRegressor,
    TreeConfig,
)

from helpers import matrix_from_arrays


def noisy_fixture(n, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, 3))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] ** 2 + 0.2 * rng.standard_normal(n)
    return matrix_from_arrays(X, y)


class TestRandomForest:
    def test_single_unbagged_tree_reduces_to_plain_tree(self):
        train = noisy_fixture(40, seed=1)
        forest = RandomForestRegressor(
            ForestConfig(n_estimators=1, max_features=3, min_samples_leaf=2,
                         bootstrap=False, seed=0)
        ).fit(train)
        tree = DecisionTreeRegressor(
            TreeConfig(max_depth=None, min_samples_leaf=2)
        ).fit(train)
        queries = train.features[:10]
        np.testing.assert_array_equal(forest.predict(queries).values,
                                      tree.predict(queries).values)

    def test_same_seed_identical_predictions(self):
        train = noisy_fixture(50, seed=2)
        queries = train.features[:8]
        first = RandomForestRegressor(ForestConfig(n_estimators=10, seed=5)).fit(train)
        second = RandomForestRegressor(ForestConfig(n_estimators=10, seed=5)).fit(train)
        np.testing.assert_array_equal(first.predict(queries).values,
                                      second.predict(queries).values)

    def test_different_seeds_differ(self):
        train = noisy_fixture(50, seed=2)
        queries = train.features[:8]
        first = RandomForestRegressor(ForestConfig(n_estimators=5, seed=5)).fit(train)
        second = RandomForestRegressor(ForestConfig(n_estimators=5, seed=6)).fit(train)
        assert not np.array_equal(first.predict(queries).values,
                                  second.predict(queries).values)

    def test_bagging_beats_single_tree_on_noisy_fixture(self):
        train = noisy_fixture(150, seed=3)
        test = noisy_fixture(150, seed=4)
        forest = RandomForestRegressor(
            ForestConfig(n_estimators=50, max_features=2, min_samples_leaf=1, seed=0)
        ).fit(train)
        tree = DecisionTreeRegressor(TreeConfig(max_depth=None, min_samples_leaf=1)).fit(train)
        forest_rmse = rmse(forest.predict(test.features).values, test.targets)
        tree_rmse = rmse(tree.predict(test.features).values, test.targets)
        assert forest_rmse <= tree_rmse

    def test_max_features_beyond_width_rejected(self):
        train = noisy_fixture(10, seed=5)
        with pytest.raises(ConfigError):
            RandomForestRegressor(ForestConfig(max_features=7)).fit(train)


class TestMonotoneInvariance:
    def test_forest_predictions_survive_monotone_feature_transform(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0.1, 2.0, size=(30, 3))
        y = rng.normal(size=30)
        config = ForestConfig(n_estimators=5, max_features=2, min_samples_leaf=2,
                              seed=3)
        base = RandomForestRegressor(config).fit(matrix_from_arrays(X, y))
        transformed = X.copy()
        transformed[:, 1] = np.log(transformed[:, 1])  # strictly monotone
        refit = RandomForestRegressor(config).fit(matrix_from_arrays(transformed, y))
        np.testing.assert_allclose(base.predict(X).values,
                                   refit.predict(transformed).values, rtol=1e-12)


def test_thirty_tree_fit_at_n640_stays_within_the_batch_budget(traced_peak):
    # evaluate-point's forest: 30 trees of 640 rows grow as one batch. Its
    # block is 30 x 17 x 641 int32 entries (1.3 MB), one lockstep call's
    # temporaries stay under 1 MB, and the 30 trees themselves hold ~0.8 MB.
    # A copy of the features per tree would add ~2.5 MB.
    train = synthetic_matrix(800, 0.05, 7).take(np.arange(640))
    config = ForestConfig(n_estimators=30, max_features=3, min_samples_leaf=3)
    RandomForestRegressor(config).fit(train)  # warm-up
    assert traced_peak(RandomForestRegressor(config).fit, train) < 4_000_000
