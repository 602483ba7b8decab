"""Ensemble draws and the aleatoric/epistemic split of predictive spread.

Per query, the aleatoric part is the root mean square of the per-draw
predicted standard deviations; the epistemic part is the sample standard
deviation (``ddof=1``) of the per-draw predicted means. The total is their
root sum of squares. It is not quite the Gaussian mixture's spread: the
mixture's variance takes the means' population variance (``ddof=0``), so
the epistemic variance here is n/(n-1) times the mixture's between-draw
variance, about 0.5% above it at 200 draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .models import EnsembleNetwork

DEFAULT_DRAWS = 200


@dataclass(frozen=True)
class EnsembleOutput:
    """Per-draw Gaussian parameters: arrays of shape (n_draws, n_queries)."""

    means: np.ndarray
    stddevs: np.ndarray

    def __post_init__(self):
        means = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        stddevs = np.atleast_2d(np.asarray(self.stddevs, dtype=np.float64))
        means.setflags(write=False)
        stddevs.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stddevs", stddevs)
        if means.shape != stddevs.shape:
            raise ConfigError("means/stddevs shape mismatch")
        if means.shape[0] < 2:
            raise ConfigError("an ensemble needs at least 2 draws")
        if np.any(stddevs <= 0):
            raise ConfigError("all per-draw stddevs must be > 0")

    @property
    def n_draws(self) -> int:
        return self.means.shape[0]

    def mixture_means(self) -> np.ndarray:
        """Mean of the Gaussian mixture per query (= mean of per-draw means)."""
        return self.means.mean(axis=0)


@dataclass(frozen=True)
class UncertaintyDecomposition:
    aleatoric: np.ndarray
    epistemic: np.ndarray
    total: np.ndarray

    def __post_init__(self):
        for name in ("aleatoric", "epistemic", "total"):
            array = np.asarray(getattr(self, name), dtype=np.float64).ravel()
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        if np.any(self.aleatoric < 0) or np.any(self.epistemic < 0):
            raise ConfigError("uncertainty components must be >= 0")


def ensemble_predict(model: EnsembleNetwork, queries, n_draws: int = DEFAULT_DRAWS,
                     seed: int = 0) -> EnsembleOutput:
    """Sample the weight posterior ``n_draws`` times and run inference passes.

    Draw d uses its own stream derived from (seed, d), so draws are
    independent of execution order.
    """
    if n_draws < 2:
        raise ConfigError("n_draws must be >= 2")
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    means = np.empty((n_draws, queries.shape[0]))
    stddevs = np.empty((n_draws, queries.shape[0]))
    noises = (model.draw_noise(np.random.default_rng(np.random.SeedSequence([seed, d])))
              for d in range(n_draws))
    for d, head in enumerate(model.sample_heads(queries, noises)):
        means[d] = head.means
        stddevs[d] = head.stddevs
    return EnsembleOutput(means=means, stddevs=stddevs)


def decompose_uncertainty(ensemble: EnsembleOutput) -> UncertaintyDecomposition:
    """Split the ensemble's predictive spread into data and model parts.

    ``total`` is the root sum of squares of the two parts. With the
    epistemic part's ``ddof=1``, ``total ** 2`` exceeds the mixture variance
    by the between-draw variance over n_draws - 1."""
    aleatoric = np.sqrt(np.mean(ensemble.stddevs ** 2, axis=0))
    epistemic = np.std(ensemble.means, axis=0, ddof=1)
    total = np.sqrt(aleatoric ** 2 + epistemic ** 2)
    return UncertaintyDecomposition(aleatoric=aleatoric, epistemic=epistemic, total=total)
