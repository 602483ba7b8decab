"""The dual Monte Carlo evaluation protocol and its derived studies.

Every (outer, inner) iteration draws a fresh train/test partition, re-runs
hyperparameter search on the training side only, fits the tuned model, and
scores the held-out side. Aggregates are computed from the per-iteration
RMSE list after sorting by iteration id, so parallel execution cannot change
any reported number.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

# Not called here: perfbench/layers.py wraps these two names on this module.
# The calls go through the registry, where the same functions are wrapped.
from ..bnn import ensemble_predict, train_ensemble_model
from ..data import DesignMatrix, apply_scaler, fit_scaler
from ..errors import DimuqError, ProtocolError, numeric_cause
from ..metrics import rmse
from .families import build_model, matches
from .search import HyperGrid, grid_search
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
    test_complement: bool = False
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
    diagnostics: tuple = ()
    best_iteration: int = -1
    best_parity: tuple | None = None

    @property
    def n_successes(self) -> int:
        return len(self.test_rmses)


def _derived_seed(seed: int, iteration: int) -> int:
    return int(np.random.SeedSequence([seed, iteration]).generate_state(1)[0])


def _split_train_test(data: DesignMatrix, protocol: Protocol, iteration: int):
    plan = dual_mc_split(data.n_rows, protocol.fractions, protocol.seed, iteration)
    train_idx = plan.train
    if protocol.test_complement:
        test_idx = np.setdiff1d(np.arange(data.n_rows), train_idx)
    else:
        test_idx = plan.test
    if test_idx.size == 0:
        raise ProtocolError("test split is empty under the requested fractions")
    return train_idx, test_idx


def _run_iteration(family, grid, data, protocol, iteration, fixed_params,
                   keep_predictions, instrumentation=None):
    train_idx, test_idx = _split_train_test(data, protocol, iteration)
    train = data.take(train_idx)
    test = data.take(test_idx)
    model_seed = _derived_seed(protocol.seed, iteration)
    if fixed_params is None:
        cv = grid_search(family, grid, train, protocol.k, seed=model_seed,
                         scaler_method=protocol.scaler_method,
                         instrumentation=instrumentation)
        params = cv.chosen_params
    else:
        params = fixed_params
    scaler = fit_scaler(train, protocol.scaler_method)
    if instrumentation is not None:
        instrumentation("scaler_fit", iteration=iteration, rows=train_idx)
    model = build_model(family, params, seed=model_seed)
    train_scaled = apply_scaler(scaler, train)
    model.fit(train_scaled)
    if instrumentation is not None:
        instrumentation("model_fit", iteration=iteration, rows=train_idx)
    train_pred = model.predict(train_scaled.features).values
    test_pred = model.predict(apply_scaler(scaler, test).features).values
    record = {
        "iteration": iteration,
        "test_rmse": rmse(test_pred, test.targets),
        "train_rmse": rmse(train_pred, train.targets),
        "params": params,
        "diagnostics": model.diagnostics(),
    }
    if keep_predictions:
        record["measured"] = test.targets.copy()
        record["predicted"] = test_pred
    return record


def _iteration_task(task, instrumentation=None):
    family, grid, data, protocol, iteration, fixed_params, keep_predictions = task
    try:
        return _run_iteration(family, grid, data, protocol, iteration, fixed_params,
                              keep_predictions, instrumentation=instrumentation)
    except DimuqError as exc:
        # the cause is resolved here: a pickled exception loses its __cause__
        return {"iteration": iteration, "error": f"{type(exc).__name__}: {exc}",
                "cause": numeric_cause(exc)}


def run_evaluation(family: str, grid: HyperGrid, data: DesignMatrix,
                   protocol: Protocol, instrumentation=None,
                   keep_best_predictions: bool = False) -> EvalReport:
    """All outer x inner iterations of the protocol, aggregated into a report."""
    if data.n_rows == 0:
        raise ProtocolError("dataset is empty")

    fixed_by_outer: dict[int, dict] = {}
    if protocol.grid_mode == "per_outer":
        for outer in range(protocol.outer_iterations):
            iteration = outer * protocol.inner_iterations
            train_idx, _ = _split_train_test(data, protocol, iteration)
            cv = grid_search(family, grid, data.take(train_idx), protocol.k,
                             seed=_derived_seed(protocol.seed, iteration),
                             scaler_method=protocol.scaler_method,
                             instrumentation=instrumentation)
            fixed_by_outer[outer] = cv.chosen_params

    tasks = []
    for outer in range(protocol.outer_iterations):
        for inner in range(protocol.inner_iterations):
            iteration = outer * protocol.inner_iterations + inner
            tasks.append((family, grid, data, protocol, iteration,
                          fixed_by_outer.get(outer), keep_best_predictions))

    if protocol.workers > 1 and instrumentation is None:
        with ProcessPoolExecutor(max_workers=protocol.workers) as pool:
            records = list(pool.map(_iteration_task, tasks))
    else:
        records = [_iteration_task(task, instrumentation) for task in tasks]

    records.sort(key=lambda r: r["iteration"])
    successes = [r for r in records if "error" not in r]
    failed = [r for r in records if "error" in r]
    failures = tuple((r["iteration"], r["error"]) for r in failed)
    if not successes:
        raise ProtocolError(
            f"every iteration failed; first error: {failures[0][1]}"
        ) from failed[0]["cause"]

    test_rmses = [r["test_rmse"] for r in successes]
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
        average=float(np.mean(test_rmses)),
        maximum=float(np.max(test_rmses)),
        minimum=float(np.min(test_rmses)),
        stddev=float(np.std(test_rmses, ddof=1)) if len(test_rmses) > 1 else 0.0,
        prediction_range=float(np.max(test_rmses) - np.min(test_rmses)),
        failures=failures,
        provenance=provenance,
        diagnostics=tuple(r.get("diagnostics", {}) for r in successes),
        best_iteration=best["iteration"],
        best_parity=(best["measured"], best["predicted"]) if keep_best_predictions else None,
    )


@dataclass(frozen=True)
class SweepReport:
    """Per-training-fraction mean and spread of train/test RMSE (mm)."""

    family: str
    fractions: tuple
    rows: tuple  # dicts: fraction, mean/std of test and train rmse, counts
    reports: tuple

    def __post_init__(self):
        values = self.fractions
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ProtocolError("sweep fractions must be strictly increasing")


def fraction_sweep(family: str, grid: HyperGrid, data: DesignMatrix,
                   fractions_list, protocol: Protocol,
                   keep_best_predictions: bool = False) -> SweepReport:
    """Run the full protocol at each training fraction; test on the complement."""
    fractions_list = [float(f) for f in fractions_list]
    if not fractions_list:
        raise ProtocolError("at least one sweep fraction is required")
    if any(not 0.0 < f < 1.0 for f in fractions_list):
        raise ProtocolError("sweep fractions must lie in (0, 1)")
    rows = []
    reports = []
    for fraction in fractions_list:
        sub_protocol = replace(protocol,
                               fractions=Fractions(fraction, 1.0 - fraction, 0.0),
                               test_complement=True)
        report = run_evaluation(family, grid, data, sub_protocol,
                                keep_best_predictions=keep_best_predictions)
        reports.append(report)
        test = np.array(report.test_rmses)
        train = np.array(report.train_rmses)
        rows.append({
            "fraction": fraction,
            "mean_test_rmse": float(test.mean()),
            "std_test_rmse": float(test.std(ddof=1)) if test.size > 1 else 0.0,
            "mean_train_rmse": float(train.mean()),
            "std_train_rmse": float(train.std(ddof=1)) if train.size > 1 else 0.0,
            "n_iterations": int(test.size),
            "n_failures": len(report.failures),
        })
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


def uq_trend_study(params: dict, data: DesignMatrix, fractions_list=None,
                   seeds=(0,), scaler_method: str = "zscore") -> UqTrendReport:
    """Train the weight-sampling network at several training fractions and
    decompose its predictive uncertainty on the held-out complement.

    ``params`` are ``bnn_ensemble`` registry parameters (epochs, n_draws and
    the network config, but no seed). Each replicate seeds its network and
    draws with its own seed."""
    if fractions_list is None:
        fractions_list = DEFAULT_TREND_FRACTIONS
    fractions_list = [float(f) for f in fractions_list]
    if not fractions_list:
        raise ProtocolError("at least one fraction is required")
    if any(not 0.0 < f < 1.0 for f in fractions_list):
        raise ProtocolError("fractions must lie in (0, 1)")
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ProtocolError("at least one seed is required")
    if "seed" in params:
        raise ProtocolError("each replicate takes its seed from seeds, not params")

    rows = []
    for fraction in fractions_list:
        replicates = []
        for seed in seeds:
            plan = dual_mc_split(data.n_rows, Fractions(fraction, 1.0 - fraction, 0.0),
                                 seed, 0)
            train_idx = plan.train
            test_idx = np.setdiff1d(np.arange(data.n_rows), train_idx)
            train = data.take(train_idx)
            test = data.take(test_idx)
            scaler = fit_scaler(train, scaler_method)
            model = build_model("bnn_ensemble", params, seed=seed)
            model.fit(apply_scaler(scaler, train))
            means, decomposition = model.predict_decomposed(
                apply_scaler(scaler, test).features)
            replicates.append({
                "seed": seed,
                "aleatoric": decomposition.aggregate_aleatoric,
                "epistemic": decomposition.aggregate_epistemic,
                "test_rmse": rmse(means, test.targets),
            })
        aleatorics = np.array([r["aleatoric"] for r in replicates])
        epistemics = np.array([r["epistemic"] for r in replicates])
        rmses = np.array([r["test_rmse"] for r in replicates])
        rows.append({
            "fraction": fraction,
            "replicates": replicates,
            "mean_aleatoric": float(aleatorics.mean()),
            "mean_epistemic": float(epistemics.mean()),
            "mean_test_rmse": float(rmses.mean()),
            "std_aleatoric": float(aleatorics.std(ddof=1)) if len(seeds) > 1 else 0.0,
            "std_epistemic": float(epistemics.std(ddof=1)) if len(seeds) > 1 else 0.0,
            "std_test_rmse": float(rmses.std(ddof=1)) if len(seeds) > 1 else 0.0,
        })
    return UqTrendReport(fractions=tuple(fractions_list), seeds=tuple(seeds),
                         n_draws=model.params.n_draws, rows=tuple(rows))
