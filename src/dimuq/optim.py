"""First-order and quasi-Newton optimizers shared by the trainable models.

L-BFGS stays in-house rather than wrapping scipy's L-BFGS-B, because only
GPR loads scipy: a run of the point families, the MLP included, never
imports it. On a 2-CPU Xeon (numpy 2.4.6, scipy 1.17.1) ``import
scipy.optimize`` takes ~0.45 s and raises an interpreter's RSS, numpy
already loaded, from 27 to 76 MB. In a trial with ``minimize_lbfgs``
rebuilt on L-BFGS-B, the benchmark's evaluate-point workload read
``peak_rss_mb`` 83.5 MB (one run, seed 0) against ~50.9 MB with this
implementation, far past that metric's 10% bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def flat_views(arrays) -> tuple[np.ndarray, list[np.ndarray]]:
    """Copy ``arrays`` into one contiguous vector; return it and views of it
    shaped like each array, in order.

    A model keeps such a vector as its ``theta`` or ``gradient`` and the
    views as its arrays, and optimizers step the vector. The views must only
    ever be written in place (``p[...] = ...``, ``+=``); rebinding one would
    detach it from the vector, and so does a pickle or deep copy of the model.
    """
    vector = np.concatenate([a.ravel() for a in arrays])
    views, offset = [], 0
    for a in arrays:
        views.append(vector[offset:offset + a.size].reshape(a.shape))
        offset += a.size
    return vector, views


class Adam:
    """Adam with bias correction; updates a parameter vector in place."""

    def __init__(self, lr: float = 0.001, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None

    def step(self, theta: np.ndarray, gradient: np.ndarray) -> None:
        if self._m is None:
            self._m = np.zeros_like(theta)
            self._v = np.zeros_like(theta)
        self.t += 1
        correction1 = 1.0 - self.beta1 ** self.t
        correction2 = 1.0 - self.beta2 ** self.t
        m, v = self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * gradient
        v *= self.beta2
        v += (1.0 - self.beta2) * gradient * gradient
        theta -= self.lr * (m / correction1) / (np.sqrt(v / correction2) + self.eps)


class RmsProp:
    """RMSprop with a decaying mean-square accumulator; in-place updates."""

    def __init__(self, lr: float = 0.001, rho: float = 0.9, eps: float = 1e-7):
        self.lr = lr
        self.rho = rho
        self.eps = eps
        self._ms: np.ndarray | None = None

    def step(self, theta: np.ndarray, gradient: np.ndarray) -> None:
        if self._ms is None:
            self._ms = np.zeros_like(theta)
        ms = self._ms
        ms *= self.rho
        ms += (1.0 - self.rho) * gradient * gradient
        theta -= self.lr * gradient / (np.sqrt(ms) + self.eps)


@dataclass
class LbfgsResult:
    x: np.ndarray
    fun: float
    grad: np.ndarray
    n_iter: int
    converged: bool
    message: str


def _wolfe_line_search(fun, x, f0, g0, direction, *, c1=1e-4, c2=0.9,
                       max_steps=25, initial_step=1.0):
    """Strong Wolfe line search by bracketing and bisection-style zoom.

    ``fun`` returns (value, gradient). Returns (step, f_new, g_new) or a
    fallback step if the search fails to bracket (non-finite landscape).
    """
    d0 = float(np.dot(g0, direction))

    def phi(alpha):
        f, g = fun(x + alpha * direction)
        return f, g, float(np.dot(g, direction))

    def zoom(lo, f_lo, d_lo, hi, f_hi):
        for _ in range(max_steps):
            alpha = 0.5 * (lo + hi)
            f_a, g_a, d_a = phi(alpha)
            if not np.isfinite(f_a) or f_a > f0 + c1 * alpha * d0 or f_a >= f_lo:
                hi, f_hi = alpha, f_a
            else:
                if abs(d_a) <= -c2 * d0:
                    return alpha, f_a, g_a
                if d_a * (hi - lo) >= 0:
                    hi, f_hi = lo, f_lo
                lo, f_lo, d_lo = alpha, f_a, d_a
        f_a, g_a, _ = phi(lo)
        return lo, f_a, g_a

    alpha_prev, f_prev, d_prev = 0.0, f0, d0
    alpha = initial_step
    for i in range(max_steps):
        f_a, g_a, d_a = phi(alpha)
        if not np.isfinite(f_a):
            alpha *= 0.25
            continue
        if f_a > f0 + c1 * alpha * d0 or (i > 0 and f_a >= f_prev):
            return zoom(alpha_prev, f_prev, d_prev, alpha, f_a)
        if abs(d_a) <= -c2 * d0:
            return alpha, f_a, g_a
        if d_a >= 0:
            return zoom(alpha, f_a, d_a, alpha_prev, f_prev)
        alpha_prev, f_prev, d_prev = alpha, f_a, d_a
        alpha *= 2.0
    f_a, g_a, _ = phi(alpha_prev) if alpha_prev > 0 else (f0, g0, d0)
    return alpha_prev, f_a, g_a


def minimize_lbfgs(fun, x0, *, memory: int = 10, max_iter: int = 500,
                   grad_tol: float = 1e-8, f_tol: float = 1e-12) -> LbfgsResult:
    """Limited-memory BFGS with strong Wolfe line search.

    ``fun(x)`` returns (value, gradient); non-finite values are treated as
    hard walls the line search backs away from.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g = fun(x)
    if not np.isfinite(f):
        return LbfgsResult(x, f, g, 0, False, "non-finite objective at start")
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    rho_hist: list[float] = []

    for it in range(max_iter):
        gnorm = float(np.max(np.abs(g))) if g.size else 0.0
        if gnorm <= grad_tol:
            return LbfgsResult(x, f, g, it, True, "gradient tolerance reached")

        # two-loop recursion
        q = g.copy()
        alphas = []
        for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
            a = rho * np.dot(s, q)
            alphas.append(a)
            q -= a * y
        if y_hist:
            gamma = np.dot(s_hist[-1], y_hist[-1]) / np.dot(y_hist[-1], y_hist[-1])
            q *= gamma
        for (s, y, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
            b = rho * np.dot(y, q)
            q += (a - b) * s
        direction = -q
        if np.dot(direction, g) >= 0:
            direction = -g  # fall back to steepest descent

        initial_step = 1.0 if y_hist else min(1.0, 1.0 / max(1.0, float(np.linalg.norm(g))))
        step, f_new, g_new = _wolfe_line_search(fun, x, f, g, direction,
                                                initial_step=initial_step)
        if step <= 0.0 or not np.isfinite(f_new):
            return LbfgsResult(x, f, g, it, False, "line search failed")
        x_new = x + step * direction
        s = x_new - x
        y = g_new - g
        sy = float(np.dot(s, y))
        if sy > 1e-12:
            s_hist.append(s)
            y_hist.append(y)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > memory:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)
        improvement = f - f_new
        x, f, g = x_new, f_new, g_new
        if 0.0 <= improvement < f_tol * max(1.0, abs(f)):
            return LbfgsResult(x, f, g, it + 1, True, "function tolerance reached")

    return LbfgsResult(x, f, g, max_iter, False, "iteration limit reached")
