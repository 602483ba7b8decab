"""The dual Monte Carlo evaluation protocol and its derived studies.

Every (outer, inner) iteration draws a fresh train/test partition, re-runs
hyperparameter search on the training side only, fits the tuned model, and
scores the held-out side. A grid with one candidate has nothing to search:
every iteration fits that candidate. Aggregates are computed from the
per-iteration RMSE list after sorting by iteration id, so parallel execution
cannot change any reported number.

A run is planned (its iteration tasks listed, every value checked), run,
then aggregated. With more than one worker a CLI command opens one process
pool and hands it every run; a sweep submits all its fractions' iterations
to it in one batch, the largest fraction first. A pool never has more
workers than the command has iterations.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

# Not called here: perfbench/layers.py wraps these four names on this module.
# The model calls go through the registry and the scaler calls through
# scale_split, where the same functions are wrapped.
from ..bnn import ensemble_predict, train_ensemble_model
from ..data import SCALER_METHODS, DesignMatrix, apply_scaler, fit_scaler
from ..errors import DimuqError, NumericError, ProtocolError, numeric_cause
from ..metrics import rmse
from .families import build_model, matches
from .search import HyperGrid, grid_search, scale_split
from .splits import Fractions, dual_mc_split


@dataclass(frozen=True)
class Protocol:
    outer_iterations: int = 3
    inner_iterations: int = 50
    # a JSON [train, test, holdout] list becomes Fractions
    fractions: Fractions = field(default_factory=lambda: Fractions(0.8, 0.2, 0.0))
    k: int = 5
    seed: int = 2022
    scaler_method: str = "zscore"
    grid_mode: str = "per_inner"  # "per_outer" reuses one tuned config per outer loop
    workers: int = 1

    def __post_init__(self):
        if not isinstance(self.fractions, Fractions):
            if not (matches(tuple[float, ...], self.fractions) and len(self.fractions) == 3):
                raise ProtocolError("protocol.fractions must be [train, test, holdout]")
            object.__setattr__(self, "fractions", Fractions(*map(float, self.fractions)))
        if self.outer_iterations < 1 or self.inner_iterations < 1:
            raise ProtocolError("iteration counts must be >= 1")
        if self.grid_mode not in ("per_inner", "per_outer"):
            raise ProtocolError(f"unknown grid_mode {self.grid_mode!r}")
        if self.scaler_method not in SCALER_METHODS:
            raise ProtocolError(f"unknown scaler_method {self.scaler_method!r}")
        if self.k < 2:
            raise ProtocolError("k must be >= 2")
        if self.workers < 1:
            raise ProtocolError("workers must be >= 1")
        if self.seed < 0:
            raise ProtocolError("seed must be >= 0")


def ci_preset(protocol: Protocol) -> Protocol:
    """Short-runtime variant: one outer loop, five inner iterations."""
    return replace(protocol, outer_iterations=1, inner_iterations=5)


@dataclass(frozen=True)
class EvalReport:
    """Aggregate statistics over all successful protocol iterations (mm).

    ``stddev`` is the sample standard deviation (divisor n-1) of the
    per-iteration test RMSEs, 0.0 when only one iteration succeeded.
    """

    family: str
    iteration_ids: tuple
    test_rmses: tuple
    train_rmses: tuple
    chosen_params: tuple
    average: float
    maximum: float
    minimum: float
    stddev: float
    prediction_range: float
    failures: tuple
    provenance: dict
    diagnostics: tuple
    best_iteration: int
    best_parity: tuple  # (measured, predicted) on best_iteration's test rows; not serialized

    @property
    def n_successes(self) -> int:
        return len(self.test_rmses)


def _derived_seed(seed: int, iteration: int) -> int:
    return int(np.random.SeedSequence([seed, iteration]).generate_state(1)[0])


def _mean_std(values) -> tuple[float, float]:
    """Mean and sample standard deviation (divisor n-1, 0.0 for one value)."""
    values = np.asarray(values, dtype=float)
    return float(values.mean()), float(values.std(ddof=1)) if values.size > 1 else 0.0


def split_rows(data: DesignMatrix, fractions: Fractions, seed: int, iteration: int,
               complement: bool = False) -> tuple[DesignMatrix, DesignMatrix]:
    """The (train, test) matrices of one ``dual_mc_split`` draw. With
    ``complement`` the test side is every row not trained on."""
    plan = dual_mc_split(data.n_rows, fractions, seed, iteration)
    test_idx = np.setdiff1d(np.arange(data.n_rows), plan.train) if complement else plan.test
    if test_idx.size == 0:
        raise ProtocolError("test split is empty under the requested fractions")
    return data.take(plan.train), data.take(test_idx)


def _run_iteration(family, grid, data, protocol, iteration, fixed_params, complement):
    train, test = split_rows(data, protocol.fractions, protocol.seed, iteration, complement)
    model_seed = _derived_seed(protocol.seed, iteration)
    if fixed_params is None:
        cv = grid_search(family, grid, train, protocol.k, seed=model_seed,
                         scaler_method=protocol.scaler_method)
        params = cv.chosen_params
    else:
        params = fixed_params
    train, test = scale_split(train, test, protocol.scaler_method)
    model = build_model(family, params, seed=model_seed)
    model.fit(train)
    train_pred = model.predict(train.features).values
    test_pred = model.predict(test.features).values
    test_rmse, train_rmse = rmse(test_pred, test.targets), rmse(train_pred, train.targets)
    if not (np.isfinite(test_rmse) and np.isfinite(train_rmse)):
        raise NumericError("the iteration's RMSE overflowed")
    return {
        "iteration": iteration,
        "test_rmse": test_rmse,
        "train_rmse": train_rmse,
        "params": params,
        "diagnostics": model.diagnostics(),
        "measured": test.targets,
        "predicted": test_pred,
    }


def _iteration_task(task):
    iteration = task[4]  # a task holds _run_iteration's arguments in order
    try:
        return _run_iteration(*task)
    except DimuqError as exc:
        # the cause is resolved here: a pickled exception loses its __cause__
        return {"iteration": iteration, "error": f"{type(exc).__name__}: {exc}",
                "cause": numeric_cause(exc)}


def worker_pool(workers: int, n_tasks: int):
    """A process pool of ``min(workers, n_tasks)`` workers to use in a
    ``with`` block; it yields ``None`` when one process is enough. The
    workers start at the first submit, not here."""
    workers = min(workers, n_tasks)
    return ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()


def _plan(family: str, grid: HyperGrid, data: DesignMatrix, protocol: Protocol,
          complement: bool) -> list[tuple]:
    """The protocol's iteration tasks, in iteration order. A one-candidate
    grid is built here, and ``per_outer`` searched here, so that a bad value
    fails before any iteration runs."""
    if data.n_rows == 0:
        raise ProtocolError("dataset is empty")

    candidates = grid.candidates()
    fixed_by_outer: dict[int, dict] = {}
    if len(candidates) == 1:
        # nothing to choose: every iteration fits the one candidate
        build_model(family, candidates[0])
        fixed_by_outer = dict.fromkeys(range(protocol.outer_iterations), candidates[0])
    elif protocol.grid_mode == "per_outer":
        for outer in range(protocol.outer_iterations):
            iteration = outer * protocol.inner_iterations
            train, _ = split_rows(data, protocol.fractions, protocol.seed, iteration,
                                  complement)
            cv = grid_search(family, grid, train, protocol.k,
                             seed=_derived_seed(protocol.seed, iteration),
                             scaler_method=protocol.scaler_method)
            fixed_by_outer[outer] = cv.chosen_params

    tasks = []
    for outer in range(protocol.outer_iterations):
        for inner in range(protocol.inner_iterations):
            iteration = outer * protocol.inner_iterations + inner
            tasks.append((family, grid, data, protocol, iteration,
                          fixed_by_outer.get(outer), complement))
    return tasks


def _run_tasks(tasks: list, workers: int, pool) -> list[dict]:
    """Every task's record, in task order: on ``pool`` when one is given,
    else on a pool of the run's own when ``workers`` > 1, else in turn."""
    with nullcontext(pool) if pool is not None else worker_pool(workers, len(tasks)) as pool:
        if pool is None:
            return [_iteration_task(task) for task in tasks]
        return list(pool.map(_iteration_task, tasks))


def _aggregate(family: str, grid: HyperGrid, protocol: Protocol, records: list) -> EvalReport:
    """The report of one protocol run's records; raises ``ProtocolError``
    when every iteration failed."""
    records = sorted(records, key=lambda r: r["iteration"])
    successes = [r for r in records if "error" not in r]
    failed = [r for r in records if "error" in r]
    failures = tuple((r["iteration"], r["error"]) for r in failed)
    if not successes:
        raise ProtocolError(
            f"every iteration failed; first error: {failures[0][1]}"
        ) from failed[0]["cause"]

    test_rmses = [r["test_rmse"] for r in successes]
    average, stddev = _mean_std(test_rmses)
    best = min(successes, key=lambda r: r["test_rmse"])
    provenance = {
        "family": family,
        "grid": grid.axes,
        "fractions": protocol.fractions.as_tuple(),
        "outer_iterations": protocol.outer_iterations,
        "inner_iterations": protocol.inner_iterations,
        "k": protocol.k,
        "seed": protocol.seed,
        "scaler_method": protocol.scaler_method,
        "grid_mode": protocol.grid_mode,
        "failed_iterations": len(failures),
    }
    if protocol.grid_mode == "per_outer":
        provenance["protocol_deviation"] = "grid search reused across inner iterations"
    return EvalReport(
        family=family,
        iteration_ids=tuple(r["iteration"] for r in successes),
        test_rmses=tuple(test_rmses),
        train_rmses=tuple(r["train_rmse"] for r in successes),
        chosen_params=tuple(r["params"] for r in successes),
        average=average,
        maximum=float(np.max(test_rmses)),
        minimum=float(np.min(test_rmses)),
        stddev=stddev,
        prediction_range=float(np.max(test_rmses) - np.min(test_rmses)),
        failures=failures,
        provenance=provenance,
        diagnostics=tuple(r.get("diagnostics", {}) for r in successes),
        best_iteration=best["iteration"],
        best_parity=(best["measured"], best["predicted"]),
    )


def run_evaluation(family: str, grid: HyperGrid, data: DesignMatrix, protocol: Protocol,
                   pool: ProcessPoolExecutor | None = None) -> EvalReport:
    """All outer x inner iterations of the protocol, aggregated into a report.
    The iterations run on ``pool`` when one is given, else on a pool of
    their own when ``protocol.workers`` > 1."""
    tasks = _plan(family, grid, data, protocol, complement=False)
    return _aggregate(family, grid, protocol, _run_tasks(tasks, protocol.workers, pool))


@dataclass(frozen=True)
class SweepReport:
    """Per-training-fraction mean and spread of train/test RMSE (mm)."""

    family: str
    fractions: tuple
    rows: tuple  # dicts: fraction, mean/std of test and train rmse, counts
    reports: tuple


def _training_fractions(values) -> list[float]:
    values = [float(f) for f in values]
    if not values:
        raise ProtocolError("at least one training fraction is required")
    if any(not 0.0 < f < 1.0 for f in values):
        raise ProtocolError("training fractions must lie in (0, 1)")
    return values


def sweep_fractions(values) -> list[float]:
    """The sweep's training fractions as floats: at least one, each inside
    (0, 1), strictly increasing; anything else raises ``ProtocolError``."""
    values = _training_fractions(values)
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ProtocolError("sweep fractions must be strictly increasing")
    return values


def fraction_sweep(family: str, grid: HyperGrid, data: DesignMatrix,
                   fractions_list, protocol: Protocol,
                   pool: ProcessPoolExecutor | None = None) -> SweepReport:
    """Run the full protocol at each training fraction; test on the complement.

    Every fraction is planned before any iteration runs. All the iterations
    then run as one batch, on ``pool`` as ``run_evaluation`` does, the
    largest fraction's first: its fits take longest, so the batch ends with
    short tasks and no worker idles long. The reports are aggregated in
    ascending fraction order, so the first fraction whose every iteration
    failed raises."""
    fractions_list = sweep_fractions(fractions_list)
    protocols = [replace(protocol, fractions=Fractions(fraction, 1.0 - fraction, 0.0))
                 for fraction in fractions_list]
    plans = [_plan(family, grid, data, sub, complement=True) for sub in protocols]
    batch = [task for plan in reversed(plans) for task in plan]
    records = iter(_run_tasks(batch, protocol.workers, pool))
    per_fraction = [list(islice(records, len(plan))) for plan in reversed(plans)][::-1]

    rows = []
    reports = []
    for fraction, sub, fraction_records in zip(fractions_list, protocols, per_fraction):
        report = _aggregate(family, grid, sub, fraction_records)
        reports.append(report)
        row = {"fraction": fraction, "n_iterations": len(report.test_rmses),
               "n_failures": len(report.failures)}
        row["mean_test_rmse"], row["std_test_rmse"] = _mean_std(report.test_rmses)
        row["mean_train_rmse"], row["std_train_rmse"] = _mean_std(report.train_rmses)
        rows.append(row)
    return SweepReport(family=family, fractions=tuple(fractions_list),
                       rows=tuple(rows), reports=tuple(reports))


@dataclass(frozen=True)
class UqTrendReport:
    """Aleatoric/epistemic aggregates per training fraction, across seeds (mm)."""

    fractions: tuple
    seeds: tuple
    n_draws: int
    rows: tuple  # dicts keyed by fraction with per-seed replicates and means


DEFAULT_TREND_FRACTIONS = (0.1, 0.5, 0.8, 0.9, 0.99)


def fit_fraction(family: str, params: dict, data: DesignMatrix, fraction: float, seed: int,
                 scaler_method: str = "zscore", complement: bool = False):
    """(fitted model, scaled test side, its ``predict_spread``) of ``family``
    fitted on a ``fraction`` of ``data``, split (as ``split_rows``) and seeded by ``seed``."""
    train, test = split_rows(data, Fractions(fraction, 1.0 - fraction, 0.0), seed, 0,
                             complement=complement)
    train, test = scale_split(train, test, scaler_method)
    model = build_model(family, params, seed=seed)
    model.fit(train)
    return model, test, model.predict_spread(test.features)


def uq_trend_study(params: dict, data: DesignMatrix, fractions_list=None,
                   seeds=(0,), scaler_method: str = "zscore") -> UqTrendReport:
    """Train the weight-sampling network at several training fractions and
    decompose its predictive uncertainty on the held-out complement.

    ``params`` are ``bnn_ensemble`` registry parameters (epochs, n_draws and
    the network config, but no seed). Each replicate seeds its network and
    draws with its own seed."""
    fractions_list = _training_fractions(
        DEFAULT_TREND_FRACTIONS if fractions_list is None else fractions_list)
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ProtocolError("at least one seed is required")
    if "seed" in params:
        raise ProtocolError("each replicate takes its seed from seeds, not params")

    rows = []
    for fraction in fractions_list:
        replicates = []
        for seed in seeds:
            model, test, (means, aleatoric, epistemic) = fit_fraction(
                "bnn_ensemble", params, data, fraction, seed, scaler_method, complement=True)
            replicates.append({
                "seed": seed,
                "aleatoric": float(aleatoric.mean()),
                "epistemic": float(epistemic.mean()),
                "test_rmse": rmse(means, test.targets),
            })
        row = {"fraction": fraction, "replicates": replicates}
        for name in ("aleatoric", "epistemic", "test_rmse"):
            row[f"mean_{name}"], row[f"std_{name}"] = _mean_std(
                [r[name] for r in replicates])
        rows.append(row)
    return UqTrendReport(fractions=tuple(fractions_list), seeds=tuple(seeds),
                         n_draws=model.config.n_draws, rows=tuple(rows))
