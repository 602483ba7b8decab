import numpy as np
import pytest

from dimuq.errors import ConfigError
from dimuq.models import KnnConfig, KnnRegressor

from helpers import matrix_from_arrays


class TestKnn:
    def test_k1_returns_matching_row_target(self):
        train = matrix_from_arrays([[0.0], [1.0], [2.0]], [0.5, 1.5, 2.5])
        model = KnnRegressor(KnnConfig(k=1)).fit(train)
        assert model.predict([[1.0]]).values[0] == 1.5

    def test_k2_hand_average(self):
        # the two nearest of the query sit at equal distance; targets 0.0, 0.1
        train = matrix_from_arrays([[0.0], [2.0], [10.0]], [0.0, 0.1, 9.0])
        model = KnnRegressor(KnnConfig(k=2)).fit(train)
        assert model.predict([[1.0]]).values[0] == pytest.approx(0.05)

    def test_matches_exhaustive_sort_oracle(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, size=(5, 1))
        y = rng.normal(size=5)
        train = matrix_from_arrays(X, y)
        queries = rng.uniform(-1, 1, size=(7, 1))
        model = KnnRegressor(KnnConfig(k=3)).fit(train)
        got = model.predict(queries).values
        for q, value in zip(queries, got):
            order = np.argsort(np.abs(X.ravel() - q[0]), kind="stable")
            assert value == pytest.approx(y[order[:3]].mean(), rel=1e-12)

    def test_manhattan_metric_oracle(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(-1, 1, size=(8, 3))
        y = rng.normal(size=8)
        queries = rng.uniform(-1, 1, size=(4, 3))
        model = KnnRegressor(KnnConfig(k=2, metric="manhattan")).fit(
            matrix_from_arrays(X, y))
        got = model.predict(queries).values
        for q, value in zip(queries, got):
            order = np.argsort(np.abs(X - q).sum(axis=1), kind="stable")
            assert value == pytest.approx(y[order[:2]].mean(), rel=1e-12)

    def test_distance_tie_breaks_to_lower_index(self):
        # rows 0 and 1 are equidistant from the query; k=1 must pick row 0
        train = matrix_from_arrays([[1.0], [-1.0], [5.0]], [10.0, 20.0, 30.0])
        model = KnnRegressor(KnnConfig(k=1)).fit(train)
        assert model.predict([[0.0]]).values[0] == 10.0

    def test_k_equal_n_predicts_global_mean(self):
        rng = np.random.default_rng(7)
        y = rng.normal(size=9)
        train = matrix_from_arrays(rng.normal(size=(9, 2)), y)
        model = KnnRegressor(KnnConfig(k=9)).fit(train)
        got = model.predict(rng.normal(size=(3, 2))).values
        np.testing.assert_allclose(got, y.mean(), rtol=1e-12)

    def test_k_larger_than_n_rejected(self):
        train = matrix_from_arrays([[0.0], [1.0]], [0.0, 1.0])
        with pytest.raises(ConfigError):
            KnnRegressor(KnnConfig(k=3)).fit(train)

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            KnnConfig(k=0)
        with pytest.raises(ConfigError):
            KnnConfig(metric="cosine")

    def test_path_equals_single_k_fits_bitwise(self):
        rng = np.random.default_rng(8)
        X = rng.integers(0, 3, size=(12, 2)).astype(np.float64)
        X = np.vstack([X, X[:5]])  # duplicated rows, so distances tie
        y = rng.normal(size=X.shape[0])
        train = matrix_from_arrays(X, y)
        queries = np.vstack([X, rng.integers(0, 3, size=(6, 2))])
        for metric in ("euclidean", "manhattan"):
            path = KnnRegressor(KnnConfig(k=7, metric=metric)).fit(train).predict_path(
                queries, [1, 4, 7])
            for k, got in zip([1, 4, 7], path):
                alone = KnnRegressor(KnnConfig(k=k, metric=metric)).fit(train)
                assert got.tobytes() == alone.predict(queries).values.tobytes()

    def test_queries_in_several_chunks_match_one_at_a_time(self):
        # 200 x 16 training values put about 78 queries in one distance chunk
        rng = np.random.default_rng(9)
        train = matrix_from_arrays(rng.normal(size=(200, 16)), rng.normal(size=200))
        queries = rng.normal(size=(200, 16))
        model = KnnRegressor(KnnConfig(k=5)).fit(train)
        together = model.predict(queries).values
        alone = [model.predict(query[None]).values[0] for query in queries]
        assert together.tobytes() == np.array(alone).tobytes()

    def test_path_k_larger_than_n_rejected(self):
        model = KnnRegressor(KnnConfig(k=1)).fit(matrix_from_arrays([[0.0], [1.0]], [0.0, 1.0]))
        with pytest.raises(ConfigError, match="k=3 exceeds 2 training rows"):
            model.predict_path([[0.5]], [1, 3])
