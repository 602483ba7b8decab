"""Gaussian process regression with a Matern(3/2) plus white-noise kernel.

Hyperparameters (amplitude, length scale, noise variance) live in log space
and are fit by restarted maximization of the log marginal likelihood with
analytic gradients. The reported predictive standard deviation includes the
learned observation noise; the latent-function deviation is available
separately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .errors import ConditioningError, ConfigError
from .metrics import Prediction, PredictiveDistribution, ProbabilisticRegressor
from .optim import minimize_lbfgs

_SQRT3 = np.sqrt(3.0)
_JITTERS = (1e-10, 1e-8, 1e-6)
_RESTART_LOG_RANGE = (np.log(1e-3), np.log(1e3))


@dataclass(frozen=True)
class KernelParams:
    """Matern(3/2) amplitude/length scale plus white-noise variance."""

    amplitude: float = 1.0
    length_scale: float = 1.0
    noise_level: float = 1.0
    nu: float = 1.5

    def __post_init__(self):
        if self.amplitude <= 0 or self.length_scale <= 0:
            raise ConfigError("amplitude and length_scale must be > 0")
        if self.noise_level < 0:
            raise ConfigError("noise_level must be >= 0")
        if self.nu != 1.5:
            raise ConfigError("only nu = 1.5 is supported")

    def log_vector(self) -> np.ndarray:
        return np.log([self.amplitude, self.length_scale, max(self.noise_level, 1e-300)])

    @staticmethod
    def from_log_vector(theta) -> "KernelParams":
        amplitude, length_scale, noise = np.exp(np.asarray(theta, dtype=np.float64))
        return KernelParams(float(amplitude), float(length_scale), float(noise))


def matern32(r, amplitude: float, length_scale: float):
    """Covariance at distance r: amplitude * (1 + sqrt(3) r / l) exp(-sqrt(3) r / l)."""
    scaled = _SQRT3 * np.asarray(r, dtype=np.float64) / length_scale
    return amplitude * (1.0 + scaled) * np.exp(-scaled)


def _pairwise_distances(X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    sq1 = (X1 ** 2).sum(axis=1)[:, None]
    sq2 = (X2 ** 2).sum(axis=1)[None, :]
    d2 = np.maximum(sq1 + sq2 - 2.0 * X1 @ X2.T, 0.0)
    return np.sqrt(d2)


def gram(X1: np.ndarray, X2: np.ndarray, params: KernelParams,
         noise: bool = False) -> np.ndarray:
    """Kernel matrix between the rows of X1 and X2. With ``noise`` (a
    self-gram of the training rows) the white-noise variance is added to the
    diagonal; it never depends on whether X1 and X2 are the same object."""
    X1 = np.atleast_2d(np.asarray(X1, dtype=np.float64))
    X2 = np.atleast_2d(np.asarray(X2, dtype=np.float64))
    if X1.shape[1] != X2.shape[1]:
        raise ConfigError(f"feature dimension mismatch: {X1.shape[1]} vs {X2.shape[1]}")
    K = matern32(_pairwise_distances(X1, X2), params.amplitude, params.length_scale)
    if noise:
        if X1.shape[0] != X2.shape[0]:
            raise ConfigError("the noise term needs a square self-gram")
        K = K + params.noise_level * np.eye(X1.shape[0])
    return K


def _chol_with_jitter(K: np.ndarray):
    for jitter in _JITTERS:
        try:
            L = cholesky(K + jitter * np.eye(K.shape[0]), lower=True)
            return L, jitter
        except np.linalg.LinAlgError:
            continue
    raise ConditioningError(
        f"kernel matrix is not positive definite even with jitter {_JITTERS[-1]:g}"
    )


def log_marginal_likelihood(X, y, params: KernelParams, return_grad: bool = False):
    """LML of the targets under the kernel, optionally with its gradient with
    respect to (log amplitude, log length scale, log noise)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    n = y.size
    distances = _pairwise_distances(X, X)
    K_matern = matern32(distances, params.amplitude, params.length_scale)
    K = K_matern + params.noise_level * np.eye(n)
    L, _ = _chol_with_jitter(K)
    alpha = cho_solve((L, True), y)
    lml = float(-0.5 * y @ alpha - np.log(np.diag(L)).sum() - 0.5 * n * np.log(2.0 * np.pi))
    if not return_grad:
        return lml

    K_inv = cho_solve((L, True), np.eye(n))
    outer = np.outer(alpha, alpha) - K_inv
    scaled = _SQRT3 * distances / params.length_scale
    dK_amplitude = K_matern
    dK_length = params.amplitude * scaled ** 2 * np.exp(-scaled)
    dK_noise = params.noise_level * np.eye(n)
    grad = np.array([
        0.5 * float((outer * dK).sum())
        for dK in (dK_amplitude, dK_length, dK_noise)
    ])
    return lml, grad


@dataclass(frozen=True)
class GprModel:
    kernel: KernelParams
    X_train: np.ndarray
    chol: np.ndarray
    alpha: np.ndarray
    jitter: float
    log_marginal: float

    def __post_init__(self):
        for name in ("X_train", "chol", "alpha"):
            array = np.asarray(getattr(self, name), dtype=np.float64)
            array.setflags(write=False)
            object.__setattr__(self, name, array)


def build_gpr(matrix, params: KernelParams) -> GprModel:
    """Condition on the training data at fixed kernel parameters."""
    X, y = matrix.features, matrix.targets
    K = gram(X, X, params, noise=True)
    L, jitter = _chol_with_jitter(K)
    alpha = cho_solve((L, True), y)
    lml = float(-0.5 * y @ alpha - np.log(np.diag(L)).sum()
                - 0.5 * y.size * np.log(2.0 * np.pi))
    return GprModel(kernel=params, X_train=X.copy(), chol=L, alpha=alpha,
                    jitter=jitter, log_marginal=lml)


def fit_gpr(matrix, init: KernelParams | None = None, n_restarts: int = 0,
            seed: int = 0) -> GprModel:
    """Maximize the LML from ``init`` plus ``n_restarts`` log-uniform starts."""
    X, y = matrix.features, matrix.targets
    if X.shape[0] == 0:
        raise ConfigError("cannot fit on empty training data")
    init = init or KernelParams()

    def objective(theta):
        if np.any(np.abs(theta) > 25.0):  # keep exp() in sane range
            return np.inf, np.zeros_like(theta)
        try:
            lml, grad = log_marginal_likelihood(X, y, KernelParams.from_log_vector(theta),
                                                return_grad=True)
        except ConditioningError:
            return np.inf, np.zeros(3)
        return -lml, -grad

    starts = [init.log_vector()]
    for r in range(n_restarts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, r]))
        starts.append(rng.uniform(*_RESTART_LOG_RANGE, size=3))

    best_theta, best_value = None, np.inf
    for theta0 in starts:
        result = minimize_lbfgs(objective, theta0, max_iter=200, grad_tol=1e-7)
        if np.isfinite(result.fun) and result.fun < best_value:
            best_theta, best_value = result.x, result.fun
    if best_theta is None:
        raise ConditioningError("every optimizer start failed conditioning")

    return build_gpr(matrix, KernelParams.from_log_vector(best_theta))


def predict_gpr(model: GprModel, queries, include_noise: bool = True) -> PredictiveDistribution:
    """Posterior mean and standard deviation per query.

    With ``include_noise`` the variance carries the learned observation
    noise; without it, only the latent-function variance remains.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if queries.shape[1] != model.X_train.shape[1]:
        raise ConfigError(
            f"query dimension {queries.shape[1]} != training dimension {model.X_train.shape[1]}"
        )
    k_cross = gram(model.X_train, queries, model.kernel)
    means = k_cross.T @ model.alpha
    v = solve_triangular(model.chol, k_cross, lower=True)
    variances = model.kernel.amplitude - (v ** 2).sum(axis=0)
    if include_noise:
        variances = variances + model.kernel.noise_level
    if np.any(variances < -1e-10):
        raise ConditioningError("predictive variance fell below the numerical guard")
    return PredictiveDistribution(means=means, stddevs=np.sqrt(np.maximum(variances, 0.0)))


class GprRegressor(ProbabilisticRegressor):
    """Contract adapter for the evaluation harness."""

    def __init__(self, init: KernelParams | None = None, n_restarts: int = 0,
                 seed: int = 0):
        self.init = init or KernelParams()
        self.n_restarts = n_restarts
        self.seed = seed
        self.model: GprModel | None = None

    def fit(self, matrix) -> "GprRegressor":
        self.model = fit_gpr(matrix, self.init, self.n_restarts, self.seed)
        return self

    def predict(self, features) -> Prediction:
        return Prediction(self.predict_dist(features).means)

    def predict_dist(self, features) -> PredictiveDistribution:
        if self.model is None:
            raise ConfigError("predict before fit")
        return predict_gpr(self.model, features)

    def diagnostics(self) -> dict:
        if self.model is None:
            return {}
        kernel = self.model.kernel
        return {
            "amplitude": kernel.amplitude,
            "length_scale": kernel.length_scale,
            "noise_level": kernel.noise_level,
            "log_marginal_likelihood": self.model.log_marginal,
        }
