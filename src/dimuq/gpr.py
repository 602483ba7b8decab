"""Gaussian process regression with a Matern(3/2) plus white-noise kernel.

Hyperparameters (amplitude, length scale, noise variance) live in log space
and are fit by restarted maximization of the log marginal likelihood with
analytic gradients (Rasmussen & Williams, *GPML*, 2006, §5.4.1): a fit
computes the pairwise distances once, and each gradient takes K^-1 from the
Cholesky factor (LAPACK ``dpotri``) without building an identity or an
outer product. The likelihood and the fitted model condition on the data
through one Cholesky solve (GPML Algorithm 2.1). The predictive standard
deviation includes the learned observation noise. ``scipy.linalg`` is
imported on first use, so importing the package (and the CLI) does not load
scipy.

Memory: one fit holds four n x n arrays for its whole run and allocates no
others: the distances, the Matern gram, the length-scale derivative and one
work matrix. Each likelihood evaluation computes s = sqrt(3) r / l and
exp(-s) once, into the derivative and the work matrix, and derives the gram
and the derivative from them. The work matrix then holds the noisy gram,
its Cholesky factor and K^-1 in turn, and the fitted model keeps it as its
factor. It is in Fortran order because LAPACK is: ``cholesky`` with
``overwrite_a`` and ``dpotri`` with ``overwrite_c`` work in place on a
Fortran-ordered array but copy a C-ordered one. The buffers belong to one
fit, so no result depends on what ran before.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .distances import sq_distances
from .errors import ConditioningError, ConfigError
from .metrics import ProbabilisticRegressor, finite_spread
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

    def __post_init__(self):
        if self.amplitude <= 0 or self.length_scale <= 0:
            raise ConfigError("amplitude and length_scale must be > 0")
        if self.noise_level < 0:
            raise ConfigError("noise_level must be >= 0")

    def log_vector(self) -> np.ndarray:
        return np.log([self.amplitude, self.length_scale, max(self.noise_level, 1e-300)])

    @staticmethod
    def from_log_vector(theta) -> "KernelParams":
        amplitude, length_scale, noise = np.exp(np.asarray(theta, dtype=np.float64))
        return KernelParams(float(amplitude), float(length_scale), float(noise))


@dataclass(frozen=True)
class GprConfig(KernelParams):
    """A fit's initial kernel, its number of log-uniform restarts and their seed."""

    n_restarts: int = 0
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.n_restarts < 0:
            raise ConfigError("n_restarts must be >= 0")


def matern32(r, amplitude: float, length_scale: float, out=None, scaled=None,
             decay=None):
    """Covariance at distance r: amplitude * (1 + s) exp(-s), s = sqrt(3) r / l.

    ``out``, ``scaled`` and ``decay``, arrays of r's shape, receive the
    covariance, s and exp(-s). ``scaled`` may be r itself, and ``out`` may
    be ``scaled`` when the caller does not keep s."""
    scaled = np.divide(np.multiply(_SQRT3, r, out=scaled), length_scale, out=scaled)
    decay = np.exp(np.negative(scaled, out=decay), out=decay)
    product = np.multiply(amplitude, np.add(1.0, scaled, out=out), out=out)
    return np.multiply(product, decay, out=out)


def _distances(X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """Euclidean distances, the square root taken in place."""
    distances = sq_distances(X1, X2)
    return np.sqrt(distances, out=distances)


def gram(X1: np.ndarray, X2: np.ndarray, params: KernelParams) -> np.ndarray:
    """Kernel matrix between the rows of X1 and X2, 2-D float arrays of one
    width, without the noise term; it never depends on whether X1 and X2
    are the same object."""
    r = _distances(X1, X2)
    return matern32(r, params.amplitude, params.length_scale, out=r, scaled=r,
                    decay=np.empty_like(r))


def _add_to_diagonal(K: np.ndarray, value: float) -> None:
    """K + value * I in place; the same bits, since x + 0.0 == x off the
    diagonal."""
    K.flat[::K.shape[0] + 1] += value


def _kernel_buffers(n: int):
    """The Matern gram, the length-scale derivative and the work matrix."""
    return np.empty((n, n)), np.empty((n, n)), np.empty((n, n), order="F")


def _condition(distances: np.ndarray, y: np.ndarray, params: KernelParams, buffers):
    """GPML Algorithm 2.1 at pairwise ``distances``, in the three
    ``buffers``: the Matern gram, the length-scale derivative
    amplitude * s^2 exp(-s), the noisy gram's Cholesky factor (in the work
    matrix) and jitter, alpha = K^-1 y and the LML."""
    from scipy.linalg import cho_solve, cholesky
    K_matern, dK_length, work = buffers
    matern32(distances, params.amplitude, params.length_scale,
             out=K_matern, scaled=dK_length, decay=work.T)
    np.multiply(params.amplitude, np.square(dK_length, out=dK_length), out=dK_length)
    np.multiply(dK_length, work.T, out=dK_length)
    for jitter in _JITTERS:
        # refilled for every attempt: a failed factorization leaves it
        # partly overwritten. Noise and jitter are added one at a time,
        # since (k + noise) + jitter need not round as k + (noise + jitter).
        work[...] = K_matern
        _add_to_diagonal(work.T, params.noise_level)
        _add_to_diagonal(work.T, jitter)
        try:
            L = cholesky(work, lower=True, overwrite_a=True)
            break
        except np.linalg.LinAlgError:
            continue
    else:
        raise ConditioningError(
            f"kernel matrix is not positive definite even with jitter {_JITTERS[-1]:g}"
        )
    alpha = cho_solve((L, True), y)
    lml = float(-0.5 * y @ alpha - np.log(np.diag(L)).sum()
                - 0.5 * y.size * np.log(2.0 * np.pi))
    return L, jitter, alpha, lml


def log_marginal_likelihood(distances: np.ndarray, y: np.ndarray, params: KernelParams,
                            buffers):
    """LML of the targets ``y`` and its gradient with respect to (log
    amplitude, log length scale, log noise), at the pairwise Euclidean
    ``distances`` of the training rows and in the three n x n ``buffers`` of
    ``_kernel_buffers``; a fit makes both once for all its evaluations."""
    from scipy.linalg.lapack import dpotri
    L, _, alpha, lml = _condition(distances, y, params, buffers)

    # d lml / d theta = 0.5 (alpha^T dK alpha - sum(K^-1 * dK)). dpotri writes
    # the lower triangle of K^-1 over L and leaves L's zero upper triangle;
    # its transpose is C-ordered like the symmetric dK, so one dot product
    # sums the upper triangle, and the full sum is twice that less the
    # diagonal.
    K_inv, info = dpotri(L, lower=True, overwrite_c=True)
    if info != 0:
        raise ConditioningError("kernel matrix could not be inverted from its Cholesky factor")
    upper = K_inv.T
    K_matern, dK_length, _ = buffers
    grad = np.array([
        0.5 * (alpha @ (dK @ alpha)
               - (2.0 * np.vdot(upper, dK) - np.diagonal(K_inv) @ np.diagonal(dK)))
        for dK in (K_matern, dK_length)
    ] + [0.5 * params.noise_level * (alpha @ alpha - np.trace(K_inv))])
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
        for array in (self.X_train, self.chol, self.alpha):
            array.setflags(write=False)


def fit_gpr(matrix, config: GprConfig) -> GprModel:
    """Maximize the LML from ``config``'s kernel plus ``config.n_restarts``
    log-uniform starts, and condition on the data at the best kernel; the
    model keeps the work matrix as its Cholesky factor."""
    X, y = matrix.features, matrix.targets
    if X.shape[0] == 0:
        raise ConfigError("cannot fit on empty training data")
    distances = _distances(X, X)
    buffers = _kernel_buffers(X.shape[0])

    def objective(theta):
        if np.any(np.abs(theta) > 25.0):  # keep exp() in sane range
            return np.inf, np.zeros_like(theta)
        try:
            lml, grad = log_marginal_likelihood(distances, y,
                                                KernelParams.from_log_vector(theta), buffers)
        except ConditioningError:
            return np.inf, np.zeros(3)
        return -lml, -grad

    starts = [config.log_vector()]
    for r in range(config.n_restarts):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, r]))
        starts.append(rng.uniform(*_RESTART_LOG_RANGE, size=3))

    best_theta, best_value = None, np.inf
    for theta0 in starts:
        result = minimize_lbfgs(objective, theta0, max_iter=200, grad_tol=1e-7)
        if np.isfinite(result.fun) and result.fun < best_value:
            best_theta, best_value = result.x, result.fun
    if best_theta is None:
        raise ConditioningError("every optimizer start failed conditioning")

    kernel = KernelParams.from_log_vector(best_theta)
    L, jitter, alpha, lml = _condition(distances, y, kernel, buffers)
    return GprModel(kernel=kernel, X_train=X, chol=L, alpha=alpha, jitter=jitter,
                    log_marginal=lml)


def predict_gpr(model: GprModel, queries):
    """(means, stddevs): the posterior mean and standard deviation per
    query, the variance with the learned observation noise."""
    from scipy.linalg import solve_triangular
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if queries.shape[1] != model.X_train.shape[1]:
        raise ConfigError(
            f"query dimension {queries.shape[1]} != training dimension {model.X_train.shape[1]}"
        )
    k_cross = gram(model.X_train, queries, model.kernel)
    means = k_cross.T @ model.alpha
    v = solve_triangular(model.chol, k_cross, lower=True)
    variances = model.kernel.amplitude - (v ** 2).sum(axis=0) + model.kernel.noise_level
    if np.any(variances < -1e-10):
        raise ConditioningError("predictive variance fell below the numerical guard")
    return means, np.sqrt(np.maximum(variances, 0.0))


class GprRegressor(ProbabilisticRegressor):
    """Contract adapter for the evaluation harness."""

    def __init__(self, config: GprConfig | None = None):
        self.config = config or GprConfig()

    def fit(self, matrix) -> "GprRegressor":
        self.model = fit_gpr(matrix, self.config)
        self.width = matrix.width
        return self

    def predict_spread(self, features):
        """Every stddev counts as aleatoric."""
        queries = self.queries(features)  # before self.model, which a fit sets
        return finite_spread(*predict_gpr(self.model, queries))

    def diagnostics(self) -> dict:
        if self.width is None:
            return {}
        kernel = asdict(self.model.kernel)
        return {**kernel, "log_marginal_likelihood": self.model.log_marginal}
