"""Squared Euclidean distances between two sets of rows, for the kernel
models (GPR and SVR)."""

from __future__ import annotations

import numpy as np


def sq_distances(X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """|a - b|^2 for every row a of X1 and b of X2, from the row norms and
    one matrix product; rounding can take it below 0, so it is clipped."""
    sq1 = (X1 ** 2).sum(axis=1)[:, None]
    sq2 = (X2 ** 2).sum(axis=1)[None, :]
    return np.maximum(sq1 + sq2 - 2.0 * X1 @ X2.T, 0.0)
