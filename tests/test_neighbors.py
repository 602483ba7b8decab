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
    if name == "offset_1e6":
        # the Gram form's worst cancellation: norms near 5e12, distances near 0.03
        base = 1e6 + rng.normal(size=(1, 5))
        return _cluster(rng, base, 0.01 * rng.normal(size=(10, 5))), \
            base + 0.01 * rng.normal(size=(8, 5)), [1, 3, 6]
    if name == "rows_ulps_apart":
        base = 10 * rng.normal(size=(1, 4))
        return _cluster(rng, base, np.spacing(base) * rng.integers(-3, 4, size=(10, 4))), \
            base + np.spacing(base) * rng.integers(-3, 4, size=(8, 4)), [1, 3, 6]
    if name in ("near_duplicates_1e-9", "near_duplicates_1e-12"):
        jitter = float(name.rsplit("_", 1)[1])
        base = rng.normal(size=(1, 6))
        return _cluster(rng, base, jitter * rng.normal(size=(10, 6))), \
            base + jitter * rng.normal(size=(8, 6)), [1, 4, 7]
    if name == "tie_group_across_kth":
        # from the origin, one row at 0.5, then eight at exactly 1: ranks 2-9
        X = np.vstack([0.5 * np.eye(4)[:1], np.eye(4), -np.eye(4), 3 + rng.normal(size=(27, 4))])
        X = X[rng.permutation(X.shape[0])]
        return X, np.vstack([np.zeros((3, 4)), 0.1 * rng.normal(size=(5, 4))]), [1, 3, 6, 9]
    if name == "k_is_n_minus_1":
        return rng.normal(size=(12, 3)), rng.normal(size=(6, 3)), [11, 2]
    raise ValueError(name)


def _cluster(rng, base, offsets):
    """``base + offsets`` among three times as many rows far from ``base``,
    so that no more than a quarter of the rows are candidates."""
    far = base + 3 + rng.normal(size=(3 * offsets.shape[0], base.shape[1]))
    rows = np.vstack([base + offsets, far])
    return rows[rng.permutation(rows.shape[0])]


# cases whose euclidean blocks all rank from candidates, so a wrong bound shows
_BOUND_CASES = ("offset_1e6", "rows_ulps_apart", "near_duplicates_1e-9",
                "near_duplicates_1e-12", "tie_group_across_kth")


def _random_case(rng):
    """(X, queries, ks) of one random oracle case: widths 1-19, up to 60
    rows, drawn in one of seven ways that stress the candidate bound. Most
    cases take a largest k of at most a quarter of the rows, so that they
    rank from candidates."""
    width, n, m = int(rng.integers(1, 20)), int(rng.integers(2, 61)), int(rng.integers(1, 20))
    ks = sorted({1, int(rng.integers(1, (n if rng.random() < 0.2 else max(1, n // 4)) + 1))})
    kind = int(rng.integers(0, 7))
    if kind == 0:
        draw = lambda size: rng.normal(size=size)
    elif kind == 1:
        draw = lambda size: rng.integers(0, 3, size=size).astype(np.float64)
    elif kind == 2:
        draw = lambda size: 1e6 + rng.normal(size=size)
    elif kind == 6:  # squares below the normal range
        draw = lambda size: 1e-161 * rng.normal(size=size)
    else:  # a few rows 1e-9 or 1e-12 apart or a few ulps apart, the rest far
        base = rng.normal(size=(1, width))
        step = {3: 1e-9, 4: 1e-12, 5: np.spacing(base)}[kind]
        near = int(rng.integers(1, max(1, n // 4) + 1))
        X = np.vstack([base + step * rng.integers(-3, 4, size=(near, width)),
                       base + 3 + rng.normal(size=(n - near, width))])
        queries = base + step * rng.integers(-3, 4, size=(m, width))
        return X[rng.permutation(n)], queries, ks
    return draw((n, width)), draw((m, width)), ks


@pytest.fixture
def brute_force_blocks(monkeypatch):
    """The query count of every block that ran the brute-force pass."""
    blocks = []
    original = KnnRegressor._distances
    def recorded(self, block, *args):
        blocks.append(block.shape[0])
        return original(self, block, *args)
    monkeypatch.setattr(KnnRegressor, "_distances", recorded)
    return blocks


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
                                      "k_max_equals_n", "no_query_rows", *_BOUND_CASES,
                                      "k_is_n_minus_1"])
    def test_selection_matches_full_stable_ranking(self, case, metric, brute_force_blocks):
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
        if case == "tie_group_across_kth":
            assert np.count_nonzero(dists[0] == 1.0) == 8
        if metric == "euclidean" and case in _BOUND_CASES:
            assert brute_force_blocks == []

    def test_random_cases_match_full_stable_ranking(self, brute_force_blocks):
        rng = np.random.default_rng(14)
        cases = 2500
        for case in range(cases):
            X, queries, ks = _random_case(rng)
            y = rng.normal(size=X.shape[0])
            model = KnnRegressor(KnnConfig(k=1)).fit(matrix_from_arrays(X, y))
            _, expected = _stable_ranking_path(X, y, queries, ks, "euclidean")
            for k, got, want in zip(ks, model.predict_path(queries, ks), expected):
                assert got.tobytes() == want.tobytes(), (case, k)
        # most cases rank from candidates, so the bound is what is tested
        assert len(brute_force_blocks) < cases / 2

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_takes_the_brute_force_pass(self, value, brute_force_blocks):
        rng = np.random.default_rng(15)
        X, y = rng.normal(size=(40, 3)), rng.normal(size=40)
        queries = rng.normal(size=(6, 3))
        queries[2, 1] = value
        got = KnnRegressor(KnnConfig(k=1)).fit(matrix_from_arrays(X, y)).predict_path(
            queries, [1, 4, 7])
        _, expected = _stable_ranking_path(X, y, queries, [1, 4, 7], "euclidean")
        assert [g.tobytes() for g in got] == [e.tobytes() for e in expected]
        assert brute_force_blocks == [6]

    @pytest.mark.parametrize("scale", [1e151, 1e154])
    def test_features_whose_squares_overflow_take_the_brute_force_pass(
            self, scale, brute_force_blocks):
        # at 1e151 the squares pass the 1e300 guard; at 1e154 they overflow
        rng = np.random.default_rng(16)
        X, y = scale * rng.normal(size=(40, 4)), rng.normal(size=40)
        queries = scale * rng.normal(size=(6, 4))
        model = KnnRegressor(KnnConfig(k=1)).fit(matrix_from_arrays(X, y))
        with np.errstate(over="ignore"):
            got = model.predict_path(queries, [1, 4, 7])
            _, expected = _stable_ranking_path(X, y, queries, [1, 4, 7], "euclidean")
        assert [g.tobytes() for g in got] == [e.tobytes() for e in expected]
        assert brute_force_blocks == [6]

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    def test_any_block_size_gives_the_same_predictions(self, metric, monkeypatch):
        rng = np.random.default_rng(17)
        train = matrix_from_arrays(rng.normal(size=(640, 16)), rng.normal(size=640))
        queries = rng.normal(size=(720, 16))
        model = KnnRegressor(KnnConfig(k=4, metric=metric)).fit(train)
        outputs = []
        for rows in (1, 7, 720):
            monkeypatch.setattr(neighbors, "_BLOCK_ELEMENTS", rows * 640)
            outputs.append([p.tobytes() for p in model.predict_path(queries, [4, 6, 8])])
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    def test_working_memory_stays_under_3_mb(self, metric, traced_peak):
        rng = np.random.default_rng(18)
        train = matrix_from_arrays(rng.normal(size=(640, 16)), rng.normal(size=640))
        queries = rng.normal(size=(720, 16))
        model = KnnRegressor(KnnConfig(k=4, metric=metric)).fit(train)
        model.predict_path(queries[:3], [4, 6, 8])  # warm-up
        assert traced_peak(model.predict_path, queries, [4, 6, 8]) <= 3_000_000

    @pytest.mark.parametrize("k", [2.5, 2.0, True, None, "3"])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(ConfigError, match="k must be int, not"):
            KnnConfig(k=k)
        model = KnnRegressor(KnnConfig(k=1)).fit(
            matrix_from_arrays([[0.0], [1.0], [2.0]], [0.0, 1.0, 2.0]))
        with pytest.raises(ConfigError, match="k must be int, not"):
            model.predict_path([[0.5]], [1, k])

    def test_numpy_integer_k_accepted(self):
        model = KnnRegressor(KnnConfig(k=np.int64(2))).fit(
            matrix_from_arrays([[0.0], [1.0], [2.0]], [0.0, 1.0, 2.0]))
        assert model.predict_path([[0.4]], [np.int64(2)])[0][0] == 0.5

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
