"""Shared test utilities: finite differences, tiny hand-built matrices and
a record of what the harness scales."""

import numpy as np

from dimuq.data import DesignMatrix
from dimuq.harness import evaluation, search


def central_difference(fun, x0, h=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.empty_like(x0)
    for i in range(x0.size):
        up = x0.copy()
        up[i] += h
        down = x0.copy()
        down[i] -= h
        grad[i] = (fun(up) - fun(down)) / (2.0 * h)
    return grad


def sq_distances_oracle(X1, X2):
    """Squared distances as one expression on whole arrays."""
    sq1 = (X1 ** 2).sum(axis=1)[:, None]
    sq2 = (X2 ** 2).sum(axis=1)[None, :]
    return np.maximum(sq1 + sq2 - 2.0 * X1 @ X2.T, 0.0)


def noisy_self_gram(X, params):
    """The training rows' gram with the white-noise variance on its diagonal."""
    from dimuq.gpr import gram
    K = gram(X, X, params)
    K[np.diag_indices_from(K)] += params.noise_level
    return K


def matrix_from_arrays(features, targets) -> DesignMatrix:
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    labels = tuple(f"x{i}" for i in range(features.shape[1]))
    return DesignMatrix(features=features, targets=targets, column_labels=labels)


def record_scaling(monkeypatch) -> list:
    """Wrap ``fit_scaler`` and ``apply_scaler`` where ``scale_split`` looks
    them up, so every scaling in the harness and the CLI is appended to the
    returned list as ``("fit" | "apply", matrix)`` in call order."""
    calls = []
    fit, apply = search.fit_scaler, search.apply_scaler

    def recording_fit(matrix, method="zscore"):
        calls.append(("fit", matrix))
        return fit(matrix, method)

    def recording_apply(state, matrix):
        calls.append(("apply", matrix))
        return apply(state, matrix)

    monkeypatch.setattr(search, "fit_scaler", recording_fit)
    monkeypatch.setattr(search, "apply_scaler", recording_apply)
    return calls


def scaled_splits(calls) -> list:
    """``(train, test)`` per recorded scaler fit: the scaler is fitted on
    ``train`` and applied to ``train``, then ``test``, and nothing else."""
    assert [kind for kind, _ in calls] == ["fit", "apply", "apply"] * (len(calls) // 3)
    splits = []
    for start in range(0, len(calls), 3):
        (_, fitted), (_, train), (_, test) = calls[start:start + 3]
        assert train is fitted
        splits.append((train, test))
    return splits


def row_ids(part: DesignMatrix, whole: DesignMatrix) -> np.ndarray:
    """The rows of ``whole`` that ``part`` holds, in order, told apart by
    their targets."""
    index = {target: i for i, target in enumerate(whole.targets.tolist())}
    assert len(index) == whole.n_rows, "the targets do not identify the rows"
    return np.array([index[target] for target in part.targets.tolist()])


def record_pools(monkeypatch, run: bool = True) -> list:
    """Replace the harness's ``ProcessPoolExecutor`` with a stand-in that
    starts no process. Every pool built appends its ``max_workers`` to the
    returned list. What is mapped on a pool runs in turn in this process,
    or, with ``run=False``, fails the test."""
    built = []

    class StandInPool:
        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return None

        def map(self, fn, *iterables):
            if not run:
                raise AssertionError("a task was submitted to a worker pool")
            return map(fn, *iterables)

    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", StandInPool)
    return built


def no_iterations(monkeypatch) -> None:
    """Make any protocol iteration, or any task submitted to a worker pool,
    fail the test. Building a pool is allowed: it starts no worker."""
    def started(*args, **kwargs):
        raise AssertionError("a protocol iteration started")

    monkeypatch.setattr(evaluation, "_run_iteration", started)
    record_pools(monkeypatch, run=False)
