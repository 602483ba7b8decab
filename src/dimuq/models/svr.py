"""Epsilon-insensitive support vector regression with an RBF kernel.

The dual is solved over net coefficients beta_i = alpha_i - alpha_i^* in
[-C, C] with sum(beta) = 0, by exact pairwise updates with second-order
working-set selection. Each step takes i as the point with the largest lower
bias bound and j as the point whose pair step promises the largest gain,
b_j^2 / (K_ii + K_jj - 2 K_ij) with b_j = lower_i - upper_j (WSS2 of Fan,
Chen & Lin, JMLR 6, 2005); if that pair cannot move, the most-violating
pair is tried once. The restricted two-variable objective is piecewise
quadratic (the epsilon term is an L1 penalty on beta), so each pair is
optimized exactly by evaluating the per-piece stationary points and the
breakpoints. Steps repeat until the largest KKT violation drops below
tolerance or the budget of max_passes * n steps runs out; a non-converged
fit is still usable and carries the residual violation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..distances import sq_distances
from ..errors import ConfigError
from ..metrics import Prediction, Regressor


@dataclass(frozen=True)
class SvrConfig:
    epsilon: float = 0.03
    c: float = 1.0
    gamma: float | str = "scale"
    tolerance: float = 1e-3
    max_passes: int = 200

    def __post_init__(self):
        if self.epsilon < 0:
            raise ConfigError("epsilon must be >= 0")
        if self.c <= 0:
            raise ConfigError("c must be > 0")
        if isinstance(self.gamma, str) and self.gamma != "scale":
            raise ConfigError(f"unknown gamma mode {self.gamma!r}")
        if not isinstance(self.gamma, str) and self.gamma <= 0:
            raise ConfigError("gamma must be > 0")
        if self.tolerance <= 0:
            raise ConfigError("tolerance must be > 0")
        if self.max_passes < 1:
            raise ConfigError("max_passes must be >= 1")


def rbf_kernel(X1: np.ndarray, X2: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma |a - b|^2), computed in place over the distances."""
    K = sq_distances(X1, X2)
    np.multiply(-gamma, K, out=K)
    return np.exp(K, out=K)


def resolve_gamma(gamma, X: np.ndarray) -> float:
    if isinstance(gamma, str):
        var = float(X.var())
        if var <= 0:
            var = 1.0
        return 1.0 / (X.shape[1] * var)
    return float(gamma)


class SvrRegressor(Regressor):
    def __init__(self, config: SvrConfig | None = None):
        self.config = config or SvrConfig()

    # -- dual machinery -----------------------------------------------------

    def _pair_objective(self, t, s, k_ii, k_jj, k_ij, u_i, u_j, y_i, y_j, eps):
        """Dual objective restricted to the pair, as a function of beta_i = t."""
        t_j = s - t
        quad = 0.5 * (k_ii * t * t + k_jj * t_j * t_j) + k_ij * t * t_j
        return (-quad - t * u_i - t_j * u_j + y_i * t + y_j * t_j
                - eps * (abs(t) + abs(t_j)))

    def _optimize_pair(self, i, j, K, beta, f_cache, y, eps, C):
        """Exactly maximize the pair (i, j) sub-problem; returns True on change.

        Scalars are read out as Python floats: the same IEEE arithmetic as
        numpy scalars, without their per-operation overhead.
        """
        b_i, b_j = float(beta[i]), float(beta[j])
        s = b_i + b_j
        lo = max(-C, s - C)
        hi = min(C, s + C)
        if hi - lo < 1e-14:
            return False
        k_ii, k_jj, k_ij = float(K[i, i]), float(K[j, j]), float(K[i, j])
        y_i, y_j = float(y[i]), float(y[j])
        u_i = float(f_cache[i]) - b_i * k_ii - b_j * k_ij
        u_j = float(f_cache[j]) - b_i * k_ij - b_j * k_jj
        eta = k_ii + k_jj - 2.0 * k_ij

        candidates = [lo, hi]
        for point in (0.0, s):
            if lo < point < hi:
                candidates.append(point)
        if eta > 1e-12:
            rho = k_jj * s - k_ij * s - u_i + u_j + y_i - y_j
            for sign_i in (-1.0, 1.0):
                for sign_j in (-1.0, 1.0):
                    t_star = (rho - eps * sign_i + eps * sign_j) / eta
                    if lo <= t_star <= hi and t_star * sign_i >= 0 \
                            and (s - t_star) * sign_j >= 0:
                        candidates.append(t_star)

        t_best = max(candidates, key=lambda t: self._pair_objective(
            t, s, k_ii, k_jj, k_ij, u_i, u_j, y_i, y_j, eps))
        delta_i = t_best - b_i
        delta_j = (s - t_best) - b_j
        if abs(delta_i) < 1e-12:
            return False
        beta[i] = t_best
        beta[j] = s - t_best
        f_cache += delta_i * K[:, i] + delta_j * K[:, j]
        return True

    def _bias_bounds(self, beta, f_cache, y, eps, C):
        """Lower/upper bounds on the bias implied by each point's KKT case.

        At the optimum max(lower) <= min(upper); the positive part of
        max(lower) - min(upper) is the optimality gap the solver drives
        below tolerance. A point at +C bounds the bias only from above, one
        at -C only from below; a point at zero lies anywhere in the tube.
        """
        margin = 1e-8 * C
        r = y - f_cache
        r_minus, r_plus = r - eps, r + eps
        lower = np.where(beta >= C - margin, -np.inf,
                         np.where(beta < -margin, r_plus, r_minus))
        upper = np.where(beta <= margin - C, np.inf,
                         np.where(beta > margin, r_minus, r_plus))
        return lower, upper

    # -- public API ----------------------------------------------------------

    def fit(self, matrix) -> "SvrRegressor":
        cfg = self.config
        X, y = matrix.features, matrix.targets
        n = matrix.n_rows
        if n == 0:
            raise ConfigError("cannot fit on empty training data")
        self._gamma = resolve_gamma(cfg.gamma, X)
        self._X = X
        K = rbf_kernel(X, X, self._gamma)
        beta = np.zeros(n)
        f_cache = np.zeros(n)  # K @ beta, no bias

        k_diag = K.diagonal().copy()
        steps = 0
        for _ in range(cfg.max_passes * n):
            lower, upper = self._bias_bounds(beta, f_cache, y, cfg.epsilon, cfg.c)
            i = int(np.argmax(lower))
            if lower[i] - upper.min() < cfg.tolerance:
                break
            # second-order selection: the j whose pair step gains the most;
            # row i stands in for column i, as K is symmetric up to rounding
            b = lower[i] - upper
            curvature = np.maximum(k_diag[i] + k_diag - 2.0 * K[i], 1e-12)
            gain = np.where(b >= cfg.tolerance, b * b / curvature, -np.inf)
            gain[i] = -np.inf
            j = int(np.argmax(gain))
            if not self._optimize_pair(i, j, K, beta, f_cache, y, cfg.epsilon, cfg.c):
                first_order_j = int(np.argmin(upper))
                if first_order_j in (i, j) or not self._optimize_pair(
                        i, first_order_j, K, beta, f_cache, y, cfg.epsilon, cfg.c):
                    break  # pairwise moves exhausted at this gap
            steps += 1

        lower, upper = self._bias_bounds(beta, f_cache, y, cfg.epsilon, cfg.c)
        self.bias = float(0.5 * (lower.max() + upper.min()))
        self.kkt_violation = max(float(lower.max() - upper.min()), 0.0)
        self.converged = self.kkt_violation < cfg.tolerance
        self.steps = steps
        self.beta = beta
        self.width = matrix.width
        if not self.converged:
            warnings.warn(
                f"SVR did not converge: max KKT violation {self.kkt_violation:.3e}",
                RuntimeWarning, stacklevel=2,
            )
        return self

    def predict(self, features) -> Prediction:
        k_cross = rbf_kernel(self.queries(features), self._X, self._gamma)
        return Prediction(k_cross @ self.beta + self.bias)

    def diagnostics(self) -> dict:
        if self.width is None:
            return {}
        return {"converged": self.converged, "kkt_violation": self.kkt_violation,
                "steps": self.steps}
