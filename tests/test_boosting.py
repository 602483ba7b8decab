import numpy as np
import pytest

from dimuq.errors import ConfigError
from dimuq.models import GbtConfig, GradientBoostingRegressor

from helpers import matrix_from_arrays


def fixture(n, seed, noise=0.1):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, 2))
    y = np.cos(X[:, 0]) * X[:, 1] + noise * rng.standard_normal(n)
    return matrix_from_arrays(X, y)


class TestGradientBoosting:
    def test_zero_stages_is_constant_mean(self):
        train = fixture(30, seed=1)
        model = GradientBoostingRegressor(
            GbtConfig(n_estimators=0, max_leaf_nodes=None)
        ).fit(train)
        np.testing.assert_allclose(model.predict(train.features[:5]).values,
                                   train.targets.mean(), rtol=1e-12)

    def test_single_full_stage_drives_training_residuals_to_leaf_granularity(self):
        train = fixture(25, seed=2, noise=0.0)
        model = GradientBoostingRegressor(
            GbtConfig(learning_rate=1.0, n_estimators=1, max_leaf_nodes=None,
                      max_depth=None, subsample=1.0)
        ).fit(train)
        residuals = model.predict(train.features).values - train.targets
        # unique feature rows: an unlimited-depth tree isolates every point
        np.testing.assert_allclose(residuals, 0.0, atol=1e-10)

    def test_training_loss_nonincreasing_without_subsampling(self):
        train = fixture(80, seed=3)
        model = GradientBoostingRegressor(
            GbtConfig(learning_rate=0.3, n_estimators=40, max_leaf_nodes=8)
        ).fit(train)
        losses = model.train_losses
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_same_seed_reproducible_with_subsampling(self):
        train = fixture(60, seed=4)
        config = GbtConfig(learning_rate=0.2, n_estimators=15, max_leaf_nodes=6,
                           subsample=0.7, seed=9)
        first = GradientBoostingRegressor(config).fit(train)
        second = GradientBoostingRegressor(config).fit(train)
        queries = train.features[:10]
        np.testing.assert_array_equal(first.predict(queries).values,
                                      second.predict(queries).values)

    def test_depth_mode_and_leaf_mode_both_fit(self):
        train = fixture(60, seed=5)
        by_depth = GradientBoostingRegressor(
            GbtConfig(n_estimators=20, max_depth=3, max_leaf_nodes=None,
                      learning_rate=0.3)
        ).fit(train)
        by_leaves = GradientBoostingRegressor(
            GbtConfig(n_estimators=20, max_leaf_nodes=8, learning_rate=0.3)
        ).fit(train)
        for model in (by_depth, by_leaves):
            assert model.train_losses[-1] < model.train_losses[0]

    def test_learning_rate_bounds(self):
        with pytest.raises(ConfigError):
            GbtConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            GbtConfig(learning_rate=1.5)

    def test_conflicting_growth_bounds_rejected(self):
        with pytest.raises(ConfigError):
            GbtConfig(max_leaf_nodes=10, max_depth=3)

    def test_stagewise_prediction_matches_manual_sum(self):
        # predictions must equal base value plus shrunken tree contributions
        from dimuq.models.tree import predict_tree
        train = fixture(40, seed=6)
        config = GbtConfig(learning_rate=0.25, n_estimators=5, max_leaf_nodes=4)
        model = GradientBoostingRegressor(config).fit(train)
        queries = train.features[:7]
        manual = np.full(7, model.base_value)
        for tree in model.trees:
            manual += config.learning_rate * predict_tree(tree, queries)
        np.testing.assert_allclose(model.predict(queries).values, manual, rtol=1e-12)


class TestMonotoneInvariance:
    def test_gbt_predictions_survive_monotone_feature_transform(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(0.1, 2.0, size=(40, 2))
        y = rng.normal(size=40)
        config = GbtConfig(learning_rate=0.3, n_estimators=8, max_leaf_nodes=5,
                           subsample=0.8, seed=4)
        base = GradientBoostingRegressor(config).fit(matrix_from_arrays(X, y))
        transformed = X.copy()
        transformed[:, 0] = transformed[:, 0] ** 3  # strictly monotone on (0, inf)
        refit = GradientBoostingRegressor(config).fit(matrix_from_arrays(transformed, y))
        np.testing.assert_allclose(base.predict(X).values,
                                   refit.predict(transformed).values, rtol=1e-12)
