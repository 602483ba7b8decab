import numpy as np
import pytest

from dimuq.errors import ConfigError
from dimuq.models import KnnConfig, KnnRegressor, neighbors

from helpers import matrix_from_arrays


def _stable_ranking_path(X, y, queries, ks, metric):
    """Each k's predictions from a full stable argsort of every distance row."""
    diff = queries[:, None, :] - X[None, :, :]
    if metric == "euclidean":
        dists = np.sqrt((diff ** 2).sum(axis=2))
    else:
        dists = np.abs(diff).sum(axis=2)
    ranking = np.argsort(dists, axis=1, kind="stable")
    return dists, [y[ranking[:, :k]].mean(axis=1) for k in ks]


def _selection_case(name):
    """(X, queries, ks) for one selection oracle case."""
    rng = np.random.default_rng(11)
    if name == "duplicated_rows":
        X = rng.integers(0, 3, size=(12, 2)).astype(np.float64)
        X = np.vstack([X[7:], X, X[:5]])
        return X, np.vstack([X, rng.integers(0, 3, size=(6, 2))]), [1, 4, 7]
    if name == "indicator_ties":
        # 3 coarse continuous columns and 13 one-hot indicators of four
        # categories, as in the encoded data: many equal distances
        levels = (4, 3, 3, 3)
        def encode(m):
            coarse = np.round(rng.normal(size=(m, 3)), 0)
            hot = [np.eye(size)[rng.integers(0, size, size=m)] for size in levels]
            return np.hstack([coarse, *hot])
        return encode(90), encode(40), [8, 6, 4, 1]
    if name == "ks_in_any_order":
        return rng.normal(size=(30, 3)), rng.normal(size=(10, 3)), [4, 8, 6]
    if name == "k_max_equals_n":
        X = rng.integers(0, 2, size=(9, 3)).astype(np.float64)
        return X, rng.integers(0, 2, size=(5, 3)).astype(np.float64), [3, 9, 1]
    if name == "no_query_rows":
        return rng.normal(size=(10, 4)), np.empty((0, 4)), [2, 5]
    raise ValueError(name)


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
        # 1000 x 8 training values put 7 queries in one difference chunk and
        # 125 in one selection block, so 600 queries span 5 blocks of chunks
        rng = np.random.default_rng(9)
        train = matrix_from_arrays(rng.normal(size=(1000, 8)), rng.normal(size=1000))
        queries = rng.normal(size=(600, 8))
        block_rows = neighbors._BLOCK_ELEMENTS // train.n_rows
        assert queries.shape[0] > 2 * block_rows
        assert block_rows > neighbors._DIFF_ELEMENTS // train.features.size > 1
        model = KnnRegressor(KnnConfig(k=5)).fit(train)
        together = model.predict(queries).values
        alone = [model.predict(query[None]).values[0] for query in queries]
        assert together.tobytes() == np.array(alone).tobytes()

    def test_path_k_larger_than_n_rejected(self):
        model = KnnRegressor(KnnConfig(k=1)).fit(matrix_from_arrays([[0.0], [1.0]], [0.0, 1.0]))
        with pytest.raises(ConfigError, match="k=3 exceeds 2 training rows"):
            model.predict_path([[0.5]], [1, 3])

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    @pytest.mark.parametrize("case", ["duplicated_rows", "indicator_ties", "ks_in_any_order",
                                      "k_max_equals_n", "no_query_rows"])
    def test_selection_matches_full_stable_ranking(self, case, metric):
        X, queries, ks = _selection_case(case)
        y = np.random.default_rng(12).normal(size=X.shape[0])
        dists, expected = _stable_ranking_path(X, y, queries, ks, metric)
        if case == "indicator_ties":
            # the fixture must tie across the k-th place for some rows and
            # not for others, or the selection's two paths are not both run
            kth = np.sort(dists, axis=1)[:, max(ks) - 1:max(ks)]
            crowded = (dists <= kth).sum(axis=1) > max(ks)
            assert crowded.any() and not crowded.all()
        model = KnnRegressor(KnnConfig(k=1, metric=metric)).fit(matrix_from_arrays(X, y))
        got = model.predict_path(queries, ks)
        assert len(got) == len(ks)
        for k, value, want in zip(ks, got, expected):
            assert value.shape == (queries.shape[0],)
            assert value.tobytes() == want.tobytes(), k

    @pytest.mark.parametrize("ks", [[0], [-1], [3, 0]])
    def test_path_k_below_one_rejected(self, ks):
        model = KnnRegressor(KnnConfig(k=1)).fit(
            matrix_from_arrays([[0.0], [1.0], [2.0]], [0.0, 1.0, 2.0]))
        with pytest.raises(ConfigError, match=f"k={min(ks)} must be >= 1"):
            model.predict_path([[0.5]], ks)

    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_query_width_must_match_the_fit(self, width):
        rng = np.random.default_rng(13)
        model = KnnRegressor(KnnConfig(k=2)).fit(
            matrix_from_arrays(rng.normal(size=(5, 3)), rng.normal(size=5)))
        with pytest.raises(ConfigError, match="do not match 3 training columns"):
            model.predict(rng.normal(size=(2, width)))
