"""Where the traced run puts its spans, and how per-layer metrics derive
from them.

Each wrap point replaces a function on the name its caller looks up, e.g.
``dimuq.models.forest:grow_tree`` is the ``grow_tree`` the forest module
calls, and ``dimuq.data:DesignMatrix.take`` is the method every caller
reaches through the class. Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import importlib

import spans as sp


def _take_mb(tracer, result, arguments):
    # computed from the result's shapes: float64 features plus targets
    rows, width = result.features.shape
    tracer.add("data.take.mb", rows * (width + 1) * 8 / 1e6)


def _query_rows(tracer, result, arguments):
    tracer.add("models.neighbors.predict.query_rows", len(result.values))


def _tree_nodes(tracer, result, arguments):
    count, stack = 0, [result]
    while stack:
        node = stack.pop()
        count += 1
        if node.left is not None:
            stack.append(node.left)
            stack.append(node.right)
    tracer.add("models.tree.nodes", count)


def _svr_status(tracer, result, arguments):
    tracer.add("models.svr.nonconverged", 0 if result.converged else 1)
    tracer.maximum("models.svr.kkt_gap_max", float(result.kkt_violation))


def _mlp_iterations(tracer, result, arguments):
    tracer.add("models.mlp.n_iter", result.n_iter)


def _lbfgs_status(tracer, result, arguments):
    tracer.add("optim.minimize_lbfgs.iterations", result.n_iter)
    tracer.add("optim.minimize_lbfgs.nonconverged", 0 if result.converged else 1)


def _head_epochs(tracer, result, arguments):
    tracer.add("bnn.train_head_model.epochs", arguments()["epochs"])


def _ensemble_epochs(tracer, result, arguments):
    tracer.add("bnn.train_ensemble_model.epochs", arguments()["epochs"])


def _draws(tracer, result, arguments):
    tracer.add("bnn.ensemble_predict.draws", arguments()["n_draws"])


_SCALER_CALLERS = ("dimuq.harness.search", "dimuq.harness.evaluation", "dimuq.cli")

# (span name, the names callers look it up by, counter hook)
WRAP_POINTS = (
    ("data.generate_synthetic", ("dimuq.cli:generate_synthetic",), None),
    ("data.encode", ("dimuq.cli:encode",), None),
    ("data.take", ("dimuq.data:DesignMatrix.take",), _take_mb),
    ("data.fit_scaler", tuple(f"{m}:fit_scaler" for m in _SCALER_CALLERS), None),
    ("data.apply_scaler", tuple(f"{m}:apply_scaler" for m in _SCALER_CALLERS), None),
    ("harness.evaluation.run_evaluation",
     ("dimuq.cli:run_evaluation", "dimuq.harness.evaluation:run_evaluation"), None),
    ("harness.evaluation.fraction_sweep", ("dimuq.cli:fraction_sweep",), None),
    ("harness.evaluation.uq_trend_study", ("dimuq.cli:uq_trend_study",), None),
    ("harness.search.grid_search", ("dimuq.harness.evaluation:grid_search",), None),
    ("harness.reports",
     tuple(f"dimuq.cli:{f}" for f in (
         "eval_report_to_json", "comparison_table", "sweep_report_to_json",
         "sweep_report_to_csv", "uq_report_to_json", "uq_report_to_csv")), None),
    ("models.neighbors.predict", ("dimuq.models.neighbors:KnnRegressor.predict",),
     _query_rows),
    ("models.tree.grow_tree",
     tuple(f"dimuq.models.{m}:grow_tree" for m in ("tree", "forest", "boosting")),
     _tree_nodes),
    ("models.tree.predict_tree",
     tuple(f"dimuq.models.{m}:predict_tree" for m in ("tree", "forest", "boosting")),
     None),
    ("models.forest.fit", ("dimuq.models.forest:RandomForestRegressor.fit",), None),
    ("models.boosting.fit", ("dimuq.models.boosting:GradientBoostingRegressor.fit",),
     None),
    ("models.svr.fit", ("dimuq.models.svr:SvrRegressor.fit",), _svr_status),
    ("models.mlp.fit", ("dimuq.models.mlp:MlpRegressor.fit",), _mlp_iterations),
    ("optim.minimize_lbfgs", ("dimuq.models.mlp:minimize_lbfgs", "dimuq.gpr:minimize_lbfgs"),
     _lbfgs_status),
    ("gpr.fit_gpr", ("dimuq.gpr:fit_gpr",), None),
    ("gpr.log_marginal_likelihood", ("dimuq.gpr:log_marginal_likelihood",), None),
    ("gpr.predict_gpr", ("dimuq.gpr:predict_gpr",), None),
    ("bnn.train_head_model",
     ("dimuq.cli:train_head_model", "dimuq.harness.families:train_head_model"),
     _head_epochs),
    ("bnn.train_ensemble_model",
     ("dimuq.cli:train_ensemble_model", "dimuq.harness.evaluation:train_ensemble_model",
      "dimuq.harness.families:train_ensemble_model"), _ensemble_epochs),
    ("bnn.ensemble_predict",
     ("dimuq.cli:ensemble_predict", "dimuq.harness.evaluation:ensemble_predict",
      "dimuq.bnn:ensemble_predict"), _draws),
    ("bnn.save_snapshot", ("dimuq.cli:save_snapshot",), None),
)

# The CLI's protocol entry points: setup ends when the first of them is called.
PROTOCOL_ENTRY_POINTS = ("dimuq.cli:run_evaluation", "dimuq.cli:fraction_sweep",
                         "dimuq.cli:uq_trend_study")


def resolve(target: str):
    """``"module:Name.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    if not hasattr(owner, attribute):
        raise AttributeError(f"wrap point {target} does not exist")
    return owner, attribute


def install(tracer: sp.Tracer) -> None:
    """Wrap every wrap point. A function reached by several names gets one
    wrapper, so a call is recorded once whichever name it came through."""
    wrappers: dict[int, object] = {}
    for name, targets, hook in WRAP_POINTS:
        for target in targets:
            owner, attribute = resolve(target)
            original = owner.__dict__[attribute] if isinstance(owner, type) \
                else getattr(owner, attribute)
            if id(original) not in wrappers:
                wrappers[id(original)] = tracer.wrap(name, original, hook)
            setattr(owner, attribute, wrappers[id(original)])


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans, counters: dict, traced_wall: float) -> dict:
    """Every span- and counter-based per-layer metric of one traced run.

    The run-level ones (pool efficiency, tracing overhead and the untraced
    wall) are filled in by the caller, which holds the untraced runs.
    """
    busy = {name: sp.busy(spans, name) for name, _, _ in WRAP_POINTS}
    count = {name: sp.calls(spans, name) for name, _, _ in WRAP_POINTS}
    lml = [s[sp.END] - s[sp.START] - s[sp.OVERHEAD] for s in spans
           if s[sp.NAME] == "gpr.log_marginal_likelihood"]
    tail = sp.high_percentile(lml)
    c = counters.get

    def n(counter):
        # counters accumulate as floats; these ones count whole things
        return int(round(counters.get(counter, 0)))

    metrics = {
        "harness.evaluation.run_evaluation.busy_s": busy["harness.evaluation.run_evaluation"],
        "harness.search.grid_search.calls": count["harness.search.grid_search"],
        "harness.search.grid_search.self_s": sp.self_time(spans, "harness.search.grid_search"),
        "harness.reports.busy_s": busy["harness.reports"],
        "data.take.calls": count["data.take"],
        "data.take.mb": c("data.take.mb", 0.0),
        "data.fit_scaler.calls": count["data.fit_scaler"],
        "data.apply_scaler.calls": count["data.apply_scaler"],
        "data.scaler.busy_s": busy["data.fit_scaler"] + busy["data.apply_scaler"],
        "data.generate_synthetic.busy_s": busy["data.generate_synthetic"],
        "data.encode.busy_s": busy["data.encode"],
        "models.neighbors.predict.calls": count["models.neighbors.predict"],
        "models.neighbors.predict.busy_s": busy["models.neighbors.predict"],
        "models.neighbors.predict.query_rows": n("models.neighbors.predict.query_rows"),
        "models.tree.grow_tree.calls": count["models.tree.grow_tree"],
        "models.tree.grow_tree.busy_s": busy["models.tree.grow_tree"],
        "models.tree.nodes": n("models.tree.nodes"),
        "models.tree.predict_tree.calls": count["models.tree.predict_tree"],
        "models.tree.predict_tree.busy_s": busy["models.tree.predict_tree"],
        "models.forest.fit.busy_s": busy["models.forest.fit"],
        "models.boosting.fit.busy_s": busy["models.boosting.fit"],
        "models.svr.fit.calls": count["models.svr.fit"],
        "models.svr.fit.busy_s": busy["models.svr.fit"],
        "models.svr.nonconverged": n("models.svr.nonconverged"),
        "models.svr.kkt_gap_max": c("models.svr.kkt_gap_max", 0.0),
        "models.mlp.fit.busy_s": busy["models.mlp.fit"],
        "models.mlp.n_iter": n("models.mlp.n_iter"),
        "optim.minimize_lbfgs.calls": count["optim.minimize_lbfgs"],
        "optim.minimize_lbfgs.iterations": n("optim.minimize_lbfgs.iterations"),
        "optim.minimize_lbfgs.nonconverged": n("optim.minimize_lbfgs.nonconverged"),
        "gpr.fit_gpr.busy_s": busy["gpr.fit_gpr"],
        "gpr.log_marginal_likelihood.calls": len(lml),
        "gpr.log_marginal_likelihood.busy_s": busy["gpr.log_marginal_likelihood"],
        "gpr.log_marginal_likelihood.ms_per_call": 1e3 * _per(sum(lml), len(lml)),
        "gpr.log_marginal_likelihood.ms_tail": 1e3 * tail[1] if tail else 0.0,
        "gpr.predict_gpr.busy_s": busy["gpr.predict_gpr"],
        "bnn.train_head_model.busy_s": busy["bnn.train_head_model"],
        "bnn.train_head_model.ms_per_epoch":
            1e3 * _per(busy["bnn.train_head_model"], c("bnn.train_head_model.epochs", 0)),
        "bnn.train_ensemble_model.busy_s": busy["bnn.train_ensemble_model"],
        "bnn.train_ensemble_model.ms_per_epoch":
            1e3 * _per(busy["bnn.train_ensemble_model"],
                       c("bnn.train_ensemble_model.epochs", 0)),
        "bnn.ensemble_predict.busy_s": busy["bnn.ensemble_predict"],
        "bnn.ensemble_predict.draws": n("bnn.ensemble_predict.draws"),
        "bnn.save_snapshot.busy_s": busy["bnn.save_snapshot"],
        "trace.unattributed_s": sp.unattributed(spans, traced_wall),
        "trace.traced_wall_s": traced_wall,
    }
    return metrics


def self_by_name(spans) -> dict:
    """Self time summed per span name: the breakdown of the traced wall."""
    out: dict[str, float] = {}
    for span, own in zip(spans, sp.self_times(spans)):
        out[span[sp.NAME]] = out.get(span[sp.NAME], 0.0) + own
    return out
