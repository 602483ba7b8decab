"""Gaussian likelihood and divergence terms for the probabilistic networks."""

from __future__ import annotations

import numpy as np

_LOG_2PI = np.log(2.0 * np.pi)


def gaussian_nll(means, stddevs, targets):
    """Mean Gaussian negative log likelihood over 1-D float arrays, without
    input checks, and its derivatives with respect to each mean and each
    stddev: (loss, d_means, d_stddevs). Per sample the loss is
    0.5 log(2 pi sigma^2) + (y - mu)^2 / (2 sigma^2). Training loops check
    the loss itself, which is non-finite when the inputs are."""
    m = targets.size
    residual = means - targets
    inv_var = 1.0 / (stddevs * stddevs)
    standardized = residual * residual * inv_var  # (y - mu)^2 / sigma^2
    loss = 0.5 * _LOG_2PI + (np.log(stddevs).sum() + 0.5 * standardized.sum()) / m
    inv_var /= m
    return float(loss), residual * inv_var, (1.0 - standardized) / (m * stddevs)


def standard_normal_kl(mu, sigma):
    """KL(N(mu, sigma^2) || N(0, 1)) per element (nats), without input
    checks."""
    return -np.log(sigma) + 0.5 * (sigma ** 2 + mu ** 2) - 0.5
