"""Ensemble draws and the aleatoric/epistemic split of predictive spread.

Per query, the aleatoric part is the root mean square of the per-draw
predicted standard deviations; the epistemic part is the sample standard
deviation (``ddof=1``) of the per-draw predicted means. Their root sum of
squares is not quite the Gaussian mixture's spread: the mixture's variance
takes the means' population variance (``ddof=0``), so the epistemic
variance here is n/(n-1) times the mixture's between-draw variance, about
0.5% above it at 200 draws.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .models import EnsembleNetwork

DEFAULT_DRAWS = 200


def ensemble_predict(model: EnsembleNetwork, queries, n_draws: int = DEFAULT_DRAWS,
                     seed: int = 0):
    """Sample the weight posterior ``n_draws`` times and run inference passes:
    the (n_draws, n_queries) arrays of per-draw means and stddevs.

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
    return means, stddevs


def decompose_uncertainty(means, stddevs):
    """(mixture mean, aleatoric, epistemic) per query of the per-draw
    ``means`` and ``stddevs``, arrays of shape (n_draws, n_queries)."""
    aleatoric = np.sqrt(np.mean(stddevs ** 2, axis=0))
    epistemic = np.std(means, axis=0, ddof=1)
    return means.mean(axis=0), aleatoric, epistemic
