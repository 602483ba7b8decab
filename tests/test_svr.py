import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from dimuq import synthetic_matrix
from dimuq.data import apply_scaler, fit_scaler
from dimuq.errors import ConfigError
from dimuq.models import SvrConfig, SvrRegressor
from dimuq.models.svr import rbf_kernel, resolve_gamma

from helpers import matrix_from_arrays, sq_distances_oracle


class TestRbfKernel:
    @pytest.mark.parametrize("n, m, same", [(300, 300, True), (400, 300, False),
                                            (1, 5, False), (0, 3, False)])
    def test_matches_the_expression_bit_for_bit(self, n, m, same):
        rng = np.random.default_rng(n)
        X1 = rng.standard_normal((n, 16))
        X2 = X1 if same else rng.standard_normal((m, 16))
        np.testing.assert_array_equal(rbf_kernel(X1, X2, 0.07),
                                      np.exp(-0.07 * sq_distances_oracle(X1, X2)))


class TestSvr:
    def test_single_point_prediction_within_epsilon(self):
        train = matrix_from_arrays([[0.5, -0.5]], [0.7])
        model = SvrRegressor(SvrConfig(epsilon=0.03)).fit(train)
        value = model.predict(train.features).values[0]
        assert abs(value - 0.7) <= 0.03

    def test_constant_targets_predict_constant(self):
        rng = np.random.default_rng(1)
        train = matrix_from_arrays(rng.uniform(-1, 1, (12, 2)), np.full(12, 0.42))
        model = SvrRegressor(SvrConfig(epsilon=0.03)).fit(train)
        assert model.bias == pytest.approx(0.42)
        np.testing.assert_array_equal(model.beta, 0.0)
        np.testing.assert_allclose(model.predict(rng.uniform(-1, 1, (5, 2))).values,
                                   0.42, rtol=1e-12)

    def test_dual_objective_matches_qp_solver(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, (25, 2))
        y = np.sin(2 * X[:, 0]) + 0.1 * rng.standard_normal(25)
        config = SvrConfig(epsilon=0.05, c=2.0, tolerance=1e-5, max_passes=500)
        model = SvrRegressor(config).fit(matrix_from_arrays(X, y))
        gamma = resolve_gamma(config.gamma, X)
        K = rbf_kernel(X, X, gamma)

        def negative_dual(beta):
            return 0.5 * beta @ K @ beta - y @ beta + config.epsilon * np.abs(beta).sum()

        reference = minimize(
            negative_dual, np.zeros(25), method="SLSQP",
            constraints={"type": "eq", "fun": lambda b: b.sum()},
            bounds=[(-config.c, config.c)] * 25,
            options={"maxiter": 2000, "ftol": 1e-14},
        )
        ours = negative_dual(model.beta)
        assert ours <= reference.fun + 1e-6

    def test_kkt_complementarity_inside_tube(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, (40, 2))
        y = 0.5 * X[:, 0] + 0.05 * rng.standard_normal(40)
        config = SvrConfig(epsilon=0.1, c=1.0, tolerance=1e-4, max_passes=500)
        model = SvrRegressor(config).fit(matrix_from_arrays(X, y))
        assert model.converged
        residuals = y - model.predict(X).values
        strictly_inside = np.abs(residuals) < config.epsilon - config.tolerance
        np.testing.assert_allclose(model.beta[strictly_inside], 0.0,
                                   atol=1e-8)

    def test_dual_coefficients_respect_box_and_balance(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(-1, 1, (30, 3))
        y = np.tanh(X).sum(axis=1) + 0.05 * rng.standard_normal(30)
        config = SvrConfig(epsilon=0.02, c=0.5)
        model = SvrRegressor(config).fit(matrix_from_arrays(X, y))
        beta = model.beta
        assert np.all(np.abs(beta) <= config.c + 1e-12)
        assert abs(beta.sum()) < 1e-10

    def test_deterministic_refit(self):
        rng = np.random.default_rng(7)
        train = matrix_from_arrays(rng.uniform(-1, 1, (30, 2)),
                                   rng.standard_normal(30) * 0.2)
        queries = rng.uniform(-1, 1, (6, 2))
        first = SvrRegressor(SvrConfig()).fit(train)
        second = SvrRegressor(SvrConfig()).fit(train)
        np.testing.assert_array_equal(first.predict(queries).values,
                                      second.predict(queries).values)

    def test_nonconvergence_warns_and_reports_violation(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(-1, 1, (60, 2))
        y = np.sin(3 * X[:, 0]) + 0.2 * rng.standard_normal(60)
        config = SvrConfig(epsilon=0.01, c=10.0, tolerance=1e-9, max_passes=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = SvrRegressor(config).fit(matrix_from_arrays(X, y))
        assert not model.converged
        assert np.isfinite(model.kkt_violation)
        assert any("KKT" in str(w.message) for w in caught)

    def test_scale_gamma_definition(self):
        rng = np.random.default_rng(9)
        X = rng.normal(2.0, 3.0, size=(50, 4))
        assert resolve_gamma("scale", X) == pytest.approx(1.0 / (4 * X.var()))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SvrConfig(epsilon=-0.1)
        with pytest.raises(ConfigError):
            SvrConfig(c=0.0)


class TestSecondOrderSelection:
    """Oracles for the solver's pair selection on a realistic problem size."""

    @pytest.fixture(scope="class")
    def scaled_fixture(self):
        data = synthetic_matrix(200, 0.05, seed=7)
        return apply_scaler(fit_scaler(data, "zscore"), data)

    def test_fixture_fit_converges_inside_box_and_balance(self, scaled_fixture):
        config = SvrConfig()
        model = SvrRegressor(config).fit(scaled_fixture)
        assert model.converged
        assert model.kkt_violation < config.tolerance
        beta = model.beta
        assert np.all(np.abs(beta) <= config.c + 1e-12)
        assert abs(beta.sum()) < 1e-10

    def test_dual_objective_within_kkt_bound_of_qp_solver_at_default_tolerance(self):
        # By convexity, a KKT gap delta leaves the objective at most
        # delta / 2 * ||beta - beta_opt||_1 above the optimum.
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, (25, 2))
        y = np.sin(2 * X[:, 0]) + 0.1 * rng.standard_normal(25)
        config = SvrConfig(epsilon=0.05, c=2.0)
        model = SvrRegressor(config).fit(matrix_from_arrays(X, y))
        K = rbf_kernel(X, X, resolve_gamma(config.gamma, X))

        def negative_dual(beta):
            return 0.5 * beta @ K @ beta - y @ beta + config.epsilon * np.abs(beta).sum()

        reference = minimize(
            negative_dual, np.zeros(25), method="SLSQP",
            constraints={"type": "eq", "fun": lambda b: b.sum()},
            bounds=[(-config.c, config.c)] * 25,
            options={"maxiter": 2000, "ftol": 1e-14},
        )
        beta = model.beta
        allowed = 0.5 * model.kkt_violation * np.abs(beta - reference.x).sum()
        assert negative_dual(beta) <= reference.fun + allowed + 1e-6

    @pytest.mark.parametrize("max_passes, tolerance", [(1, 1e-9), (200, 1e-3)])
    def test_steps_stay_within_budget(self, scaled_fixture, max_passes, tolerance):
        config = SvrConfig(tolerance=tolerance, max_passes=max_passes)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            model = SvrRegressor(config).fit(scaled_fixture)
        diagnostics = model.diagnostics()
        assert 0 < diagnostics["steps"] <= max_passes * scaled_fixture.n_rows
        assert diagnostics["converged"] == model.converged
        assert diagnostics["kkt_violation"] == model.kkt_violation

    def test_diagnostics_empty_before_fit(self):
        assert SvrRegressor().diagnostics() == {}
