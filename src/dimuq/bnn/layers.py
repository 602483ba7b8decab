"""Network building blocks, shared by the probabilistic networks and the
point MLP.

Everything is plain numpy. Each layer holds its parameters and, in the
arrays its ``GRADS`` names, their gradients, which are written in place. A
network packs those arrays into one parameter vector and one gradient
vector with ``pack_layers``. Each network trains with a fused pass of its
own (the MLP in ``models/mlp.py``, the probabilistic networks in
``models.py``): a layer's ``apply`` is its forward map, and the network
writes the layer's gradients.
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

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Cache-free forward pass, safe under concurrent calls."""
        return x @ self.W + self.b


class BatchNormLayer(_Trainable):
    """Batch normalization with trainable scale/shift and running statistics.

    A training pass normalizes by ``batch_moments`` and folds them into the
    running estimates with ``update_running``; ``apply`` (inference) uses
    the running estimates only.
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

    def batch_moments(self, x: np.ndarray, out: np.ndarray | None = None):
        """Batch mean, variance, 1/sqrt(variance + eps) and standardized
        batch, which is written to ``out`` (``x`` itself standardizes in
        place). The column sums are vector products with a ones vector,
        which cost a fraction of ``sum(axis=0)`` on a tall batch."""
        ones = np.ones(x.shape[0])
        mean = ones @ x / x.shape[0]
        centred = np.subtract(x, mean, out=out)
        var = ones @ (centred * centred) / x.shape[0]
        inv_std = 1.0 / np.sqrt(var + self.eps)
        centred *= inv_std
        return mean, var, inv_std, centred

    def update_running(self, mean: np.ndarray, var: np.ndarray) -> None:
        self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
        self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Cache-free inference pass using the running statistics."""
        inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
        return self.gamma * (x - self.running_mean) * inv_std + self.beta


class VariationalDenseLayer(_Trainable):
    """Dense layer whose weights carry independent Gaussian posteriors.

    Each weight and bias has a mean and a pre-softplus scale; a training
    pass consumes one standard-normal noise draw per parameter (the
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

    def draw_noise(self, rng):
        return rng.standard_normal(self.mu_W.shape), rng.standard_normal(self.mu_b.shape)

    def posterior_stddevs(self):
        """softplus(rho) of the weights and of the biases."""
        return softplus(self.rho_W), softplus(self.rho_b)

    def sampled_weights(self, noise, stddevs):
        (eps_W, eps_b), (sigma_W, sigma_b) = noise, stddevs
        return self.mu_W + sigma_W * eps_W, self.mu_b + sigma_b * eps_b

    def write_gradients(self, dW, db, noise, stddevs, kl_weight: float) -> None:
        """Write d(data loss + kl_weight * KL)/d(mu, rho), given the data
        loss's gradients ``dW`` and ``db`` with respect to the weights that
        ``sampled_weights(noise, stddevs)`` drew."""
        for grad, eps, sigma, mu, d_mu, d_rho in (
                (dW, noise[0], stddevs[0], self.mu_W, self.dmu_W, self.drho_W),
                (db, noise[1], stddevs[1], self.mu_b, self.dmu_b, self.drho_b)):
            np.multiply(mu, kl_weight, out=d_mu)
            d_mu += grad
            np.multiply(grad, eps, out=d_rho)
            d_rho += kl_weight * (sigma - 1.0 / sigma)
            # d softplus(rho) / d rho = sigmoid(rho) = 1 - exp(-softplus(rho))
            d_rho *= -np.expm1(-sigma)

    def kl(self, stddevs) -> float:
        """Analytic KL(posterior || standard normal), summed over parameters,
        of the posterior whose ``posterior_stddevs()`` are ``stddevs``."""
        return sum(float(np.sum(standard_normal_kl(mu, sigma)))
                   for mu, sigma in zip((self.mu_W, self.mu_b), stddevs))
