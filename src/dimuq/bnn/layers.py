"""Network building blocks with explicit forward/backward passes, shared by
the probabilistic networks and the point MLP.

Everything is plain numpy; each layer caches what its backward pass needs
and writes parameter gradients, in place, into the arrays its ``GRADS``
names. A network packs those arrays into one parameter vector and one
gradient vector with ``pack_layers``.
"""

from __future__ import annotations

import numpy as np

from ..optim import flat_views
from .losses import standard_normal_kl


def softplus(x):
    return np.logaddexp(0.0, x)


def softplus_inverse(y):
    # exact inverse of log(1 + e^x) for y > 0
    return np.log(np.expm1(y))


def sigmoid(x):
    # 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below: exp never overflows
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


STDDEV_FLOOR = 1e-6


class _Trainable:
    """A layer whose trainable arrays are the attributes named in ``PARAMS``,
    with their gradients in the attributes named in ``GRADS``; the arrays it
    estimates without gradients are named in ``STATISTICS``."""

    PARAMS: tuple[str, ...] = ()
    GRADS: tuple[str, ...] = ()
    STATISTICS: tuple[str, ...] = ()


def pack_layers(layers) -> tuple[np.ndarray, np.ndarray]:
    """Rebind every parameter and gradient array of ``layers`` to views of one
    parameter vector and one gradient vector, and return the two vectors.
    The arrays run by their position in ``PARAMS``, then by layer: dense
    layers give all their weights, then all their biases."""
    layers = list(layers)
    depth = max(len(layer.PARAMS) for layer in layers)
    slots = [(layer, layer.PARAMS[i], layer.GRADS[i]) for i in range(depth)
             for layer in layers if i < len(layer.PARAMS)]
    theta, values = flat_views([getattr(layer, p) for layer, p, _ in slots])
    gradient, grads = flat_views([getattr(layer, g) for layer, _, g in slots])
    for (layer, p, g), value, grad in zip(slots, values, grads):
        setattr(layer, p, value)
        setattr(layer, g, grad)
    return theta, gradient


class DenseLayer(_Trainable):
    """Affine map with Glorot-uniform weights."""

    PARAMS = ("W", "b")
    GRADS = ("dW", "db")

    def __init__(self, n_in: int, n_out: int, rng):
        limit = np.sqrt(6.0 / (n_in + n_out))
        self.W = rng.uniform(-limit, limit, size=(n_in, n_out))
        self.b = np.zeros(n_out)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.W + self.b

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Cache-free forward pass, safe under concurrent calls."""
        return x @ self.W + self.b

    def param_backward(self, dz: np.ndarray) -> None:
        """Write the weight and bias gradients only, for a layer whose input
        gradient nobody reads."""
        self.dW[...] = self._x.T @ dz
        self.db[...] = dz.sum(axis=0)

    def backward(self, dz: np.ndarray) -> np.ndarray:
        self.param_backward(dz)
        return dz @ self.W.T


class BatchNormLayer(_Trainable):
    """Batch normalization with trainable scale/shift and running statistics.

    ``forward`` (training) normalizes by batch statistics and updates the
    running estimates; ``apply`` (inference) uses the running estimates only.
    """

    PARAMS = ("gamma", "beta")
    GRADS = ("dgamma", "dbeta")
    STATISTICS = ("running_mean", "running_var")

    def __init__(self, n_units: int, momentum: float = 0.99, eps: float = 1e-3):
        self.gamma = np.ones(n_units)
        self.beta = np.zeros(n_units)
        self.running_mean = np.zeros(n_units)
        self.running_var = np.ones(n_units)
        self.momentum = momentum
        self.eps = eps
        self.dgamma = np.zeros_like(self.gamma)
        self.dbeta = np.zeros_like(self.beta)
        self._xhat: np.ndarray | None = None
        self._inv_std: np.ndarray | None = None

    def batch_moments(self, x: np.ndarray):
        """Batch mean, variance, 1/sqrt(variance + eps) and standardized batch."""
        mean = x.mean(axis=0)
        centred = x - mean
        var = (centred * centred).sum(axis=0) / x.shape[0]  # == x.var(axis=0)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        return mean, var, inv_std, centred * inv_std

    def update_running(self, mean: np.ndarray, var: np.ndarray) -> None:
        self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
        self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var

    def forward(self, x: np.ndarray) -> np.ndarray:
        mean, var, inv_std, xhat = self.batch_moments(x)
        self.update_running(mean, var)
        return self.scale_shift(xhat, inv_std)

    def scale_shift(self, xhat: np.ndarray, inv_std: np.ndarray) -> np.ndarray:
        """gamma * xhat + beta, caching what the backward pass needs."""
        self._xhat, self._inv_std = xhat, inv_std
        return self.gamma * xhat + self.beta

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Cache-free inference pass using the running statistics."""
        inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
        return self.gamma * (x - self.running_mean) * inv_std + self.beta

    def param_backward(self, dy: np.ndarray) -> None:
        """Write the scale/shift gradients only, for a layer whose input
        gradient nobody reads."""
        self.dgamma[...] = (dy * self._xhat).sum(axis=0)
        self.dbeta[...] = dy.sum(axis=0)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        self.param_backward(dy)
        xhat, inv_std = self._xhat, self._inv_std
        dxhat = dy * self.gamma
        return inv_std * (dxhat - dxhat.mean(axis=0) - xhat * (dxhat * xhat).mean(axis=0))


class VariationalDenseLayer(_Trainable):
    """Dense layer whose weights carry independent Gaussian posteriors.

    Each weight and bias has a mean and a pre-softplus scale; a forward pass
    consumes one standard-normal noise draw per parameter (the
    reparameterization w = mu + softplus(rho) * eps), so gradients flow into
    both mean and scale. The prior is a standard normal per parameter.
    """

    PARAMS = ("mu_W", "rho_W", "mu_b", "rho_b")
    GRADS = ("dmu_W", "drho_W", "dmu_b", "drho_b")

    def __init__(self, n_in: int, n_out: int, rng, init_mu_std: float = 0.1,
                 init_sigma: float = 0.05):
        self.mu_W = init_mu_std * rng.standard_normal((n_in, n_out))
        self.rho_W = np.full((n_in, n_out), softplus_inverse(init_sigma))
        self.mu_b = init_mu_std * rng.standard_normal(n_out)
        self.rho_b = np.full(n_out, softplus_inverse(init_sigma))
        self.dmu_W = np.zeros_like(self.mu_W)
        self.drho_W = np.zeros_like(self.rho_W)
        self.dmu_b = np.zeros_like(self.mu_b)
        self.drho_b = np.zeros_like(self.rho_b)
        self._cache = None

    def draw_noise(self, rng):
        return rng.standard_normal(self.mu_W.shape), rng.standard_normal(self.mu_b.shape)

    def posterior_stddevs(self):
        """softplus(rho) of the weights and of the biases."""
        return softplus(self.rho_W), softplus(self.rho_b)

    def sampled_weights(self, noise, stddevs):
        (eps_W, eps_b), (sigma_W, sigma_b) = noise, stddevs
        return self.mu_W + sigma_W * eps_W, self.mu_b + sigma_b * eps_b

    def forward(self, x: np.ndarray, noise) -> np.ndarray:
        """Sampled pass; caches the draw and the posterior stddevs, which
        ``forward_kl`` and ``backward`` reuse until the next forward pass."""
        stddevs = self.posterior_stddevs()
        W, b = self.sampled_weights(noise, stddevs)
        self._cache = (x, noise, W, stddevs)
        return x @ W + b

    def backward(self, dz: np.ndarray, kl_weight: float) -> np.ndarray:
        """Write d(data loss + kl_weight * KL)/d(mu, rho) of the last forward
        pass; return the input gradient."""
        x, (eps_W, eps_b), W, (sigma_W, sigma_b) = self._cache
        dW = x.T @ dz
        db = dz.sum(axis=0)
        slope_W = sigmoid(self.rho_W)  # d softplus(rho) / d rho
        slope_b = sigmoid(self.rho_b)
        self.dmu_W[...] = dW + kl_weight * self.mu_W
        self.drho_W[...] = (dW * eps_W * slope_W
                            + kl_weight * (sigma_W - 1.0 / sigma_W) * slope_W)
        self.dmu_b[...] = db + kl_weight * self.mu_b
        self.drho_b[...] = (db * eps_b * slope_b
                            + kl_weight * (sigma_b - 1.0 / sigma_b) * slope_b)
        return dz @ W.T

    def forward_kl(self) -> float:
        """Analytic KL(posterior || standard normal), summed over parameters,
        of the posterior the last forward pass sampled from."""
        return sum(float(np.sum(standard_normal_kl(mu, sigma)))
                   for mu, sigma in zip((self.mu_W, self.mu_b), self._cache[3]))
