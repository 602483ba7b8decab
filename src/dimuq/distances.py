"""Squared Euclidean distances between two sets of rows, for the kernel
models (GPR and SVR) and for the bound that picks kNN's candidate rows.

The cross term is ``2.0 * X1 @ X2.T``: the product of the scaled copy of X1
with X2. That operand form is kept on purpose. ``X1 @ X2.T`` with the same
object on both sides takes numpy's symmetric BLAS path, whose bits differ,
so scaling after the product would change every kernel model's results.
The product is the only array of the result's size: the row norms are
added, the product subtracted and the result clipped in blocks of rows
through one small buffer, then written back over the product.
"""

from __future__ import annotations

import numpy as np

_BLOCK_ELEMENTS = 32768  # 256 KB of float64 per row block


def sq_distances(X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """|a - b|^2 for every row a of X1 and b of X2, from the row norms and
    one matrix product: max((|a|^2 + |b|^2) - 2 a.b, 0), since rounding can
    take it below 0. The same bits as the expression on whole arrays."""
    sq1 = (X1 ** 2).sum(axis=1)[:, None]
    sq2 = (X2 ** 2).sum(axis=1)[None, :]
    result = 2.0 * X1 @ X2.T
    rows = max(1, _BLOCK_ELEMENTS // max(result.shape[1], 1))
    block = np.empty((min(rows, result.shape[0]), result.shape[1]))
    for start in range(0, result.shape[0], rows):
        part = result[start:start + rows]
        buffer = block[:part.shape[0]]
        np.add(sq1[start:start + rows], sq2, out=buffer)
        np.subtract(buffer, part, out=buffer)
        np.maximum(buffer, 0.0, out=part)
    return result
