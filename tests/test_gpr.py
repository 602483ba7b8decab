import numpy as np
import pytest

from dimuq.distances import sq_distances
from dimuq.errors import ConfigError
from dimuq.gpr import (
    GprConfig,
    GprRegressor,
    KernelParams,
    _kernel_buffers,
    fit_gpr,
    gram,
    log_marginal_likelihood,
    matern32,
    predict_gpr,
)

from helpers import (
    central_difference,
    conditioned_gpr,
    gpr_lml,
    matrix_from_arrays,
    noisy_self_gram,
    sq_distances_oracle,
)


class TestMatern32:
    def test_zero_distance_returns_amplitude(self):
        assert matern32(0.0, amplitude=2.5, length_scale=1.3) == 2.5

    def test_unit_evaluation(self):
        expected = (1 + np.sqrt(3)) * np.exp(-np.sqrt(3))
        assert matern32(1.0, 1.0, 1.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.4833577245965077, rel=1e-12)

    def test_monotone_decay_to_zero(self):
        r = np.linspace(0, 25, 200)
        values = matern32(r, 1.0, 1.0)
        assert np.all(np.diff(values) < 0)
        assert values[-1] < 1e-9


class TestGram:
    def test_self_gram_single_point_includes_noise(self):
        # the conditioned self-gram: amplitude + noise (+ a 1e-10 jitter)
        X = np.array([[0.3, 0.4]])
        model = conditioned_gpr(matrix_from_arrays(X, [0.0]),
                                KernelParams(amplitude=1.0, noise_level=1.0))
        np.testing.assert_allclose(model.chol ** 2, [[2.0]])

    def test_cross_gram_carries_no_noise(self):
        X = np.array([[0.3, 0.4]])
        Q = X.copy()
        K = gram(X, Q, KernelParams(amplitude=1.0, noise_level=1.0))
        np.testing.assert_allclose(K, [[1.0]])

    def test_matches_pairwise_matern_of_distances(self):
        X = np.array([[0.0], [1.0], [2.0]])  # collinear points
        params = KernelParams(amplitude=1.4, length_scale=0.7, noise_level=0.0)
        K = gram(X, X, params)
        for i in range(3):
            for j in range(3):
                r = abs(X[i, 0] - X[j, 0])
                assert K[i, j] == pytest.approx(matern32(r, 1.4, 0.7), rel=1e-12)

    def test_gram_does_not_depend_on_array_identity(self):
        X = np.array([[0.3, 0.4], [1.0, -0.2]])
        params = KernelParams(amplitude=1.0, noise_level=0.5)
        np.testing.assert_array_equal(gram(X, X, params), gram(X, X.copy(), params))

    def test_noise_adds_to_the_diagonal_bit_for_bit(self):
        # the factor a model keeps is that of gram + noise I + jitter I
        from scipy.linalg import cholesky
        X = np.random.default_rng(2).uniform(-1, 1, size=(6, 2))
        params = KernelParams(amplitude=1.3, noise_level=0.2)
        model = conditioned_gpr(matrix_from_arrays(X, np.zeros(6)), params)
        expected = cholesky(noisy_self_gram(X, params) + model.jitter * np.eye(6), lower=True)
        np.testing.assert_array_equal(model.chol, expected)

    def test_dimension_mismatch(self):
        model = conditioned_gpr(matrix_from_arrays(np.zeros((2, 2)), np.zeros(2)),
                                KernelParams())
        with pytest.raises(ConfigError):
            predict_gpr(model, np.zeros((2, 3)))


class TestLogMarginalLikelihood:
    def test_scalar_case(self):
        # k(0,0) + noise = 2 with y = 0
        X, y = np.zeros((1, 1)), np.zeros(1)
        lml, _ = gpr_lml(X, y, KernelParams(amplitude=1.0, noise_level=1.0))
        # the conditioning jitter (1e-10 on the diagonal) perturbs at ~1e-11
        assert lml == pytest.approx(-0.5 * np.log(2) - 0.5 * np.log(2 * np.pi), abs=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, size=(5, 2))
        y = rng.standard_normal(5) * 0.3

        def lml_of(theta):
            return gpr_lml(X, y, KernelParams.from_log_vector(theta))[0]

        theta0 = np.log([0.8, 1.2, 0.4])
        _, grad = gpr_lml(X, y, KernelParams.from_log_vector(theta0))
        numeric = central_difference(lml_of, theta0, h=1e-6)
        np.testing.assert_allclose(grad, numeric, rtol=1e-5, atol=1e-9)

    def test_gradient_matches_the_explicit_inverse_formula(self):
        from scipy.linalg import cho_solve, cholesky
        rng = np.random.default_rng(12)
        X = rng.uniform(-1, 1, size=(300, 4))
        y = np.sin(X.sum(axis=1)) + 0.1 * rng.standard_normal(300)
        params = KernelParams(amplitude=0.7, length_scale=1.4, noise_level=0.05)
        n = y.size
        # 0.5 * sum((alpha alpha^T - K^-1) * dK), K^-1 solved against the
        # identity, with the first conditioning jitter (1e-10) on K
        distances = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))
        scaled = np.sqrt(3.0) * distances / params.length_scale
        K_matern = params.amplitude * (1 + scaled) * np.exp(-scaled)
        L = cholesky(K_matern + (params.noise_level + 1e-10) * np.eye(n), lower=True)
        alpha = cho_solve((L, True), y)
        outer = np.outer(alpha, alpha) - cho_solve((L, True), np.eye(n))
        expected = [0.5 * (outer * dK).sum() for dK in (
            K_matern, params.amplitude * scaled ** 2 * np.exp(-scaled),
            params.noise_level * np.eye(n))]

        lml, grad = gpr_lml(X, y, params)
        np.testing.assert_allclose(grad, expected, rtol=1e-9)
        assert lml == pytest.approx(-0.5 * y @ alpha - np.log(np.diag(L)).sum()
                                    - 0.5 * n * np.log(2 * np.pi), rel=1e-12)

    def test_doubling_targets_scales_data_fit_term_only(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, size=(4, 1))
        y = rng.standard_normal(4)
        params = KernelParams(noise_level=0.5)
        n = 4
        lml_1, _ = gpr_lml(X, y, params)
        lml_2, _ = gpr_lml(X, 2 * y, params)
        # lml = -0.5 q - logdet - c where q is the quadratic form: q scales by 4
        constant = -np.log(np.diag(np.linalg.cholesky(noisy_self_gram(X, params)))).sum() \
            - 0.5 * n * np.log(2 * np.pi)
        q1 = -(lml_1 - constant)
        q2 = -(lml_2 - constant)
        assert q2 == pytest.approx(4 * q1, rel=1e-9)


def whole_array_lml(X, y, params):
    """The LML, its gradient and the jitter, each step a whole-array
    expression on fresh arrays and the jitter added to a fresh copy."""
    from scipy.linalg import cho_solve, cholesky
    from scipy.linalg.lapack import dpotri
    n = y.size
    distances = np.sqrt(sq_distances_oracle(X, X))
    scaled = np.sqrt(3.0) * distances / params.length_scale
    K_matern = params.amplitude * (1.0 + scaled) * np.exp(-scaled)
    noisy = K_matern.copy()
    noisy.flat[::n + 1] += params.noise_level
    for jitter in (1e-10, 1e-8, 1e-6):
        attempt = noisy.copy()
        attempt.flat[::n + 1] += jitter
        try:
            L = cholesky(attempt, lower=True, overwrite_a=True)
            break
        except np.linalg.LinAlgError:
            continue
    alpha = cho_solve((L, True), y)
    lml = float(-0.5 * y @ alpha - np.log(np.diag(L)).sum() - 0.5 * n * np.log(2.0 * np.pi))
    K_inv, _ = dpotri(L, lower=True, overwrite_c=True)
    dK_length = params.amplitude * scaled ** 2 * np.exp(-scaled)
    grad = np.array([
        0.5 * (alpha @ (dK @ alpha)
               - (2.0 * np.vdot(K_inv.T, dK) - np.diagonal(K_inv) @ np.diagonal(dK)))
        for dK in (K_matern, dK_length)
    ] + [0.5 * params.noise_level * (alpha @ alpha - np.trace(K_inv))])
    return lml, grad, jitter


class TestKernelBuffers:
    # rows in triplicate: at amplitude 1e6 and no noise, the first jitter
    # (1e-10) leaves the gram numerically singular and the second one is used
    KERNELS = [(0.7, 1.4, 0.05), (1e6, 1.0, 0.0), (2.0, 0.3, 1e-4)]

    def test_likelihood_and_gradient_match_the_whole_array_expressions_bit_for_bit(self):
        rng = np.random.default_rng(14)
        X = np.vstack([rng.uniform(-1, 1, (20, 2))] * 3)
        y = np.sin(X.sum(axis=1)) + 0.1 * rng.standard_normal(60)
        buffers = _kernel_buffers(60)  # shared, as a fit shares them
        distances = np.sqrt(sq_distances(X, X))
        jitters = []
        for kernel in self.KERNELS:
            params = KernelParams(*kernel)
            lml, grad, jitter = whole_array_lml(X, y, params)
            jitters.append(jitter)
            got = log_marginal_likelihood(distances, y, params, buffers)
            assert got[0] == lml
            np.testing.assert_array_equal(got[1], grad)
            assert conditioned_gpr(matrix_from_arrays(X, y), params).jitter == jitter
        assert jitters == [1e-10, 1e-8, 1e-10]

    def test_fit_holds_four_kernel_matrices(self, traced_peak):
        rng = np.random.default_rng(15)
        X = rng.uniform(-1, 1, (300, 4))
        train = matrix_from_arrays(X, np.sin(X.sum(axis=1)) + 0.1 * rng.standard_normal(300))
        # warm-up: scipy imports
        fit_gpr(matrix_from_arrays(X[:5], train.targets[:5]), GprConfig())
        assert traced_peak(fit_gpr, train, GprConfig()) <= 4.5 * 300 * 300 * 8


class TestFitAndPredict:
    def test_optimization_does_not_decrease_lml(self):
        rng = np.random.default_rng(5)
        train = matrix_from_arrays(rng.uniform(-2, 2, (12, 1)),
                                   np.sin(rng.uniform(-2, 2, 12)))
        before, _ = gpr_lml(train.features, train.targets, KernelParams())
        model = fit_gpr(train, GprConfig(n_restarts=0, seed=0))
        assert model.log_marginal >= before - 1e-9

    def test_built_model_carries_the_likelihood_bit_for_bit(self):
        rng = np.random.default_rng(8)
        train = matrix_from_arrays(rng.uniform(-2, 2, (15, 2)), rng.normal(size=15))
        params = KernelParams(amplitude=1.3, length_scale=0.7, noise_level=0.05)
        lml, _ = gpr_lml(train.features, train.targets, params)
        assert conditioned_gpr(train, params).log_marginal == lml

    def test_noise_free_fixture_learns_small_noise(self):
        rng = np.random.default_rng(6)
        X = np.linspace(-1, 1, 14)[:, None]
        y = 0.8 * X.ravel()  # smooth, zero observation noise
        model = fit_gpr(matrix_from_arrays(X, y), GprConfig(n_restarts=3, seed=1))
        assert model.kernel.noise_level < 1e-3

    def test_scalar_posterior_mean_halves_target(self):
        train = matrix_from_arrays([[0.0]], [0.8])
        model = conditioned_gpr(train, KernelParams(amplitude=1.0, noise_level=1.0))
        dist = predict_gpr(model, np.array([[0.0]]))
        assert dist.means[0] == pytest.approx(0.4, rel=1e-9)  # c / 2
        assert dist.stddevs[0] == pytest.approx(np.sqrt(1.5), rel=1e-9)

    def test_far_query_reverts_to_prior(self):
        rng = np.random.default_rng(7)
        train = matrix_from_arrays(rng.uniform(-1, 1, (8, 1)),
                                   rng.standard_normal(8) * 0.5)
        model = fit_gpr(train, GprConfig(n_restarts=0, seed=0))
        dist = predict_gpr(model, np.array([[500.0]]))
        assert dist.means[0] == pytest.approx(0.0, abs=1e-6)
        prior_var = model.kernel.amplitude + model.kernel.noise_level
        assert dist.stddevs[0] ** 2 == pytest.approx(prior_var, rel=1e-6)

    def test_three_point_posterior_matches_dense_inverse_oracle(self):
        X = np.array([[0.0], [0.5], [1.3]])
        y = np.array([0.2, -0.1, 0.4])
        params = KernelParams(amplitude=0.9, length_scale=0.8, noise_level=0.05)
        model = conditioned_gpr(matrix_from_arrays(X, y), params)
        # oracle: direct matrix inversion with the same kernel
        K = noisy_self_gram(X, params)
        Q = np.array([[0.2], [0.9]])
        k_cross = gram(X, Q, params)
        K_inv = np.linalg.inv(K)
        expected_mean = k_cross.T @ K_inv @ y
        expected_var = (params.amplitude + params.noise_level
                        - np.einsum("ij,ik,kj->j", k_cross, K_inv, k_cross))
        dist = predict_gpr(model, Q)
        np.testing.assert_allclose(dist.means, expected_mean, atol=1e-8)
        np.testing.assert_allclose(dist.stddevs ** 2, expected_var, atol=1e-8)

    def test_duplicate_training_point_leaves_predictions_unchanged(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(-1, 1, (6, 1))
        y = np.sin(X.ravel())
        # information from a duplicate vanishes as the noise does; tiny noise
        # still keeps the doubled-row kernel matrix nonsingular
        params = KernelParams(amplitude=1.0, length_scale=1.0, noise_level=1e-8)
        base = conditioned_gpr(matrix_from_arrays(X, y), params)
        X_dup = np.vstack([X, X[:1]])
        y_dup = np.append(y, y[0])
        dup = conditioned_gpr(matrix_from_arrays(X_dup, y_dup), params)
        Q = rng.uniform(-1, 1, (5, 1))
        np.testing.assert_allclose(predict_gpr(base, Q).means,
                                   predict_gpr(dup, Q).means, atol=1e-6)

    def test_prediction_at_training_rows_ignores_array_identity(self):
        rng = np.random.default_rng(11)
        train = matrix_from_arrays(rng.uniform(-1, 1, (12, 2)),
                                   rng.standard_normal(12) * 0.3)
        model = conditioned_gpr(train, KernelParams(amplitude=0.5, length_scale=0.7,
                                                    noise_level=0.2))
        same = predict_gpr(model, model.X_train)
        copied = predict_gpr(model, model.X_train.copy())
        np.testing.assert_allclose(same.means, copied.means, rtol=0, atol=1e-12)
        np.testing.assert_allclose(same.stddevs, copied.stddevs, rtol=0, atol=1e-12)

    def test_mean_interpolates_at_tiny_noise(self):
        X = np.linspace(-1, 1, 5)[:, None]
        y = np.cos(2 * X.ravel())
        params = KernelParams(amplitude=1.0, length_scale=0.5, noise_level=1e-8)
        model = conditioned_gpr(matrix_from_arrays(X, y), params)
        dist = predict_gpr(model, X.copy())
        np.testing.assert_allclose(dist.means, y, atol=1e-4)

    def test_predictive_variance_bounded_by_prior(self):
        rng = np.random.default_rng(10)
        train = matrix_from_arrays(rng.uniform(-1, 1, (10, 2)),
                                   rng.standard_normal(10) * 0.3)
        model = fit_gpr(train, GprConfig(n_restarts=2, seed=3))
        queries = rng.uniform(-3, 3, (40, 2))
        dist = predict_gpr(model, queries)
        upper = model.kernel.amplitude + model.kernel.noise_level
        assert np.all(dist.stddevs ** 2 <= upper + 1e-9)
        assert np.all(dist.stddevs >= 0)

    def test_regressor_contract_adapter(self):
        rng = np.random.default_rng(12)
        train = matrix_from_arrays(rng.uniform(-1, 1, (10, 2)),
                                   rng.standard_normal(10) * 0.2)
        model = GprRegressor(GprConfig(n_restarts=0, seed=0)).fit(train)
        queries = rng.uniform(-1, 1, (3, 2))
        np.testing.assert_array_equal(model.predict(queries).values,
                                      model.predict_dist(queries).means)


class TestFitFailure:
    def test_all_starts_failing_raises_conditioning_error(self):
        from dimuq.errors import ConditioningError
        rng = np.random.default_rng(13)
        train = matrix_from_arrays(rng.uniform(-1, 1, (6, 1)),
                                   rng.standard_normal(6))
        absurd = GprConfig(amplitude=1e20, length_scale=1e20, noise_level=1e20)
        with pytest.raises(ConditioningError):
            fit_gpr(train, absurd)
