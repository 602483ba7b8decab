"""Gaussian likelihood and divergence terms for the probabilistic networks."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError

_LOG_2PI = np.log(2.0 * np.pi)


def nll_loss(means, stddevs, targets) -> float:
    """Mean Gaussian negative log likelihood over samples.

    Per sample: 0.5 log(2 pi sigma^2) + (y - mu)^2 / (2 sigma^2).
    """
    means = np.asarray(means, dtype=np.float64).ravel()
    stddevs = np.asarray(stddevs, dtype=np.float64).ravel()
    targets = np.asarray(targets, dtype=np.float64).ravel()
    if not (np.all(np.isfinite(means)) and np.all(np.isfinite(stddevs))
            and np.all(np.isfinite(targets))):
        raise ConfigError("nll_loss inputs must be finite")
    if np.any(stddevs <= 0):
        raise ConfigError("stddevs must be > 0")
    return gaussian_nll(means, stddevs, targets)[0]


def gaussian_nll(means, stddevs, targets):
    """``nll_loss`` on 1-D float arrays without input checks, and its
    derivatives with respect to each mean and each stddev: (loss, d_means,
    d_stddevs). Training loops check the loss itself, which is non-finite
    when the inputs are."""
    m = targets.size
    residual = means - targets
    inv_var = 1.0 / (stddevs * stddevs)
    standardized = residual * residual * inv_var  # (y - mu)^2 / sigma^2
    loss = 0.5 * _LOG_2PI + (np.log(stddevs).sum() + 0.5 * standardized.sum()) / m
    inv_var /= m
    return float(loss), residual * inv_var, (1.0 - standardized) / (m * stddevs)


def standard_normal_kl(mu, sigma):
    """KL(N(mu, sigma^2) || N(0, 1)) per element (nats), without input
    checks: the terms ``kl_diag_gaussians(mu, sigma, 0, 1)`` sums."""
    return -np.log(sigma) + 0.5 * (sigma ** 2 + mu ** 2) - 0.5


def kl_diag_gaussians(mu_q, sigma_q, mu_p, sigma_p) -> float:
    """KL(q || p) between diagonal Gaussians, summed over parameters (nats)."""
    mu_q = np.asarray(mu_q, dtype=np.float64).ravel()
    sigma_q = np.asarray(sigma_q, dtype=np.float64).ravel()
    mu_p = np.asarray(mu_p, dtype=np.float64).ravel()
    sigma_p = np.asarray(sigma_p, dtype=np.float64).ravel()
    if np.any(sigma_q <= 0) or np.any(sigma_p <= 0):
        raise ConfigError("standard deviations must be > 0")
    terms = (np.log(sigma_p / sigma_q)
             + (sigma_q ** 2 + (mu_q - mu_p) ** 2) / (2.0 * sigma_p ** 2)
             - 0.5)
    return float(terms.sum())
