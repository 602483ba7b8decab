import numpy as np
import pytest

from dimuq.optim import Adam, RmsProp, flat_views, minimize_lbfgs


def quadratic(A, b):
    def fun(x):
        return 0.5 * x @ A @ x - b @ x, A @ x - b
    return fun


class TestLbfgs:
    def test_solves_convex_quadratic(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((6, 6))
        A = M @ M.T + 6 * np.eye(6)
        b = rng.standard_normal(6)
        result = minimize_lbfgs(quadratic(A, b), np.zeros(6), max_iter=100)
        assert result.converged
        np.testing.assert_allclose(result.x, np.linalg.solve(A, b), atol=1e-6)

    def test_rosenbrock(self):
        def rosen(x):
            f = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2
            g = np.array([
                -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1 - x[0]),
                200.0 * (x[1] - x[0] ** 2),
            ])
            return f, g

        result = minimize_lbfgs(rosen, np.array([-1.2, 1.0]), max_iter=300)
        np.testing.assert_allclose(result.x, [1.0, 1.0], atol=1e-5)

    def test_monotone_improvement(self):
        rng = np.random.default_rng(1)
        A = np.diag(rng.uniform(1, 10, 4))
        fun = quadratic(A, rng.standard_normal(4))
        x0 = rng.standard_normal(4)
        f0, _ = fun(x0)
        result = minimize_lbfgs(fun, x0, max_iter=50)
        assert result.fun <= f0

    def test_handles_nonfinite_wall(self):
        # objective undefined left of the origin; the line search must back off
        def walled(x):
            if x[0] <= 0:
                return np.inf, np.zeros(1)
            return (x[0] - 1.0) ** 2 + np.log(x[0]) ** 2, \
                np.array([2 * (x[0] - 1.0) + 2 * np.log(x[0]) / x[0]])

        result = minimize_lbfgs(walled, np.array([3.0]), max_iter=100)
        assert result.x[0] > 0
        assert result.fun < 1e-8


class StepRecorder:
    """Minimal quadratic bowls for the first-order optimizers."""

    @staticmethod
    def run(optimizer, steps=400):
        theta = np.array([4.0, -3.0])
        for _ in range(steps):
            optimizer.step(theta, 2.0 * theta)
        return theta


class TestFirstOrder:
    def test_adam_reaches_minimum(self):
        final = StepRecorder.run(Adam(lr=0.05))
        np.testing.assert_allclose(final, 0.0, atol=1e-3)

    def test_rmsprop_reaches_minimum(self):
        # sign-normalized steps settle into a ball of radius ~lr
        final = StepRecorder.run(RmsProp(lr=0.01), steps=1500)
        np.testing.assert_allclose(final, 0.0, atol=0.05)

    def test_adam_first_step_size_is_lr(self):
        # bias correction makes the first update exactly lr * sign(grad)
        optimizer = Adam(lr=0.1)
        theta = np.array([1.0])
        optimizer.step(theta, np.array([7.0]))
        assert theta[0] == pytest.approx(1.0 - 0.1, abs=1e-9)


def reference_adam(params, grads_per_step, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
    """Per-array Adam, the update written once per trainable array."""
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grads_per_step, start=1):
        correction1 = 1.0 - beta1 ** t
        correction2 = 1.0 - beta2 ** t
        for p, g, m_i, v_i in zip(params, grads, m, v):
            m_i *= beta1
            m_i += (1.0 - beta1) * g
            v_i *= beta2
            v_i += (1.0 - beta2) * g * g
            p -= lr * (m_i / correction1) / (np.sqrt(v_i / correction2) + eps)


def reference_rmsprop(params, grads_per_step, lr=0.01, rho=0.9, eps=1e-7):
    """Per-array RMSprop, the update written once per trainable array."""
    ms = [np.zeros_like(p) for p in params]
    for grads in grads_per_step:
        for p, g, ms_i in zip(params, grads, ms):
            ms_i *= rho
            ms_i += (1.0 - rho) * g * g
            p -= lr * g / (np.sqrt(ms_i) + eps)


class TestFlatStep:
    @pytest.mark.parametrize("optimizer_class, reference", [
        (Adam, reference_adam),
        (RmsProp, reference_rmsprop),
    ])
    def test_one_vector_step_equals_per_array_steps_bit_for_bit(self, optimizer_class,
                                                                 reference):
        optimizer = optimizer_class(lr=0.01)
        rng = np.random.default_rng(5)
        shapes = [(16, 8), (8,), (16, 8), (8,), (8, 2), (2,)]
        params = [rng.standard_normal(s) for s in shapes]
        grads_per_step = [[rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3)
                           for s in shapes] for _ in range(6)]
        theta, _ = flat_views(params)
        for grads in grads_per_step:
            optimizer.step(theta, flat_views(grads)[0])
        reference(params, grads_per_step)
        np.testing.assert_array_equal(theta, np.concatenate([p.ravel() for p in params]))
