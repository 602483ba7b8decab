import numpy as np
import pytest

from dimuq.distances import _BLOCK_ELEMENTS, sq_distances

from helpers import sq_distances_oracle


def _rows(n, seed, d=5):
    return np.random.default_rng(seed).standard_normal((n, d))


class TestSqDistances:
    def test_same_object_on_both_sides_matches_the_expression_bit_for_bit(self):
        X = _rows(300, 0, d=16)
        np.testing.assert_array_equal(sq_distances(X, X), sq_distances_oracle(X, X))

    @pytest.mark.parametrize("n, m", [
        (400, 300),
        (3 * (_BLOCK_ELEMENTS // 70) + 1, 70),  # a last block of one row
        (1, 9), (9, 1), (1, 1), (0, 4), (4, 0),
    ])
    def test_matches_the_expression_bit_for_bit(self, n, m):
        X1, X2 = _rows(n, 1), _rows(m, 2)
        got = sq_distances(X1, X2)
        assert got.shape == (n, m)
        np.testing.assert_array_equal(got, sq_distances_oracle(X1, X2))

    def test_clips_rounding_below_zero(self):
        X = np.full((3, 2), 1e8) + np.arange(3)[:, None] * 1e-8
        assert np.all(sq_distances(X, X) >= 0.0)

    def test_holds_one_result_sized_array(self, traced_peak):
        X1, X2 = _rows(400, 3, d=16), _rows(300, 4, d=16)
        sq_distances(X1[:2], X2[:2])  # warm-up
        assert traced_peak(sq_distances, X1, X2) <= 1.5 * 400 * 300 * 8
