"""Self-test of the benchmark's own code.

    python3 -m pytest perfbench

Covers the span arithmetic, the tail-percentile rule and a tiny-size smoke
run of every workload, traced and untraced, so the benchmark cannot rot
unnoticed. It takes about 20 s.
"""

from __future__ import annotations

import json
import math

import pytest

import checks
import layers
import run
import spans as sp
import workloads


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _nested_trace():
    """outer [0, 10] holds a [1, 4] (which holds b [2, 3]) and a second a
    [5, 6]; top-level c spans [11, 13]."""
    clock = FakeClock()
    tracer = sp.Tracer(clock)

    def leaf(duration):
        clock.now += duration

    def a(first_gap, inner):
        clock.now += first_gap
        if inner:
            b(1.0)
        clock.now += 1.0

    b = tracer.wrap("b", leaf)
    a = tracer.wrap("a", a)

    def body():
        clock.now += 1.0
        a(1.0, True)          # a: [1, 4], b: [2, 3]
        clock.now += 1.0
        a(0.0, False)         # a: [5, 6]
        clock.now += 4.0

    outer = tracer.wrap("outer", body)
    outer()
    clock.now += 1.0
    tracer.wrap("c", leaf)(2.0)
    return tracer


def test_self_time_subtracts_direct_children_only():
    spans = _nested_trace().spans
    by_name = {}
    for span, own in zip(spans, sp.self_times(spans)):
        by_name.setdefault(span[sp.NAME], []).append(own)
    assert by_name["outer"] == [10.0 - 3.0 - 1.0]
    assert by_name["a"] == [3.0 - 1.0, 1.0]
    assert by_name["b"] == [1.0]
    assert by_name["c"] == [2.0]
    assert sp.self_time(spans, "a") == 3.0
    assert sp.busy(spans, "a") == 4.0
    assert sp.calls(spans, "a") == 2


def test_self_times_and_unattributed_account_for_the_wall():
    spans = _nested_trace().spans
    wall = 15.0
    assert sp.unattributed(spans, wall) == 3.0
    assert sum(sp.self_times(spans)) + sp.unattributed(spans, wall) == wall


def test_busy_counts_recursive_spans_once():
    clock = FakeClock()
    tracer = sp.Tracer(clock)

    def countdown(n):
        clock.now += 1.0
        if n:
            recursive(n - 1)

    recursive = tracer.wrap("r", countdown)
    recursive(2)
    assert sp.calls(tracer.spans, "r") == 3
    assert sp.busy(tracer.spans, "r") == 3.0
    assert sum(sp.self_times(tracer.spans)) == 3.0


def test_hook_time_is_overhead_not_work():
    clock = FakeClock()
    tracer = sp.Tracer(clock)

    def slow_hook(t, result, arguments):
        clock.now += 5.0
        t.add("seen", arguments()["amount"])

    def work(amount):
        clock.now += amount

    inner = tracer.wrap("inner", work, after=slow_hook)

    def body():
        inner(1.0)
        inner(amount=2.0)

    tracer.wrap("outer", body)()
    assert tracer.counters == {"seen": 3.0}
    assert sp.busy(tracer.spans, "outer") == 3.0
    assert sp.self_time(tracer.spans, "outer") == 0.0


def test_high_percentile_keeps_ten_samples_beyond_it():
    assert sp.high_percentile(range(10)) is None
    assert sp.high_percentile(range(11)) == (9, 0)
    assert sp.high_percentile(range(100)) == (90, 89)
    assert sp.high_percentile(range(1000)) == (99, 989)
    for n in (11, 37, 250):
        percentile, value = sp.high_percentile(range(n))
        assert n - (value + 1) >= 10
        # one percent higher would leave fewer than ten beyond
        assert percentile == 99 or n - -(-(percentile + 1) * n // 100) < 10


def test_every_wrap_point_resolves_and_every_layer_metric_is_declared(monkeypatch):
    monkeypatch.syspath_prepend(str(run.ROOT / "src"))
    for _, targets, _ in layers.WRAP_POINTS:
        for target in targets:
            layers.resolve(target)
    computed = layers.layer_metrics([], {}, 1.0)
    filled_by_run = {"trace.untraced_wall_s", "trace.overhead_frac",
                     "harness.evaluation.pool_efficiency"}
    assert set(computed) | filled_by_run == set(run.declared("per_layer"))


def test_prediction_table_covers_exactly_the_declared_per_layer_metrics():
    table = json.loads((run.HERE / "predictions.json").read_text(encoding="utf-8"))
    assert set(table["metrics"]) == set(run.declared("per_layer"))
    for entry in table["metrics"].values():
        assert entry["moves"] in (None, *run.declared("end_to_end"))
        assert set(entry["on"]) <= set(workloads.WORKLOADS)


def test_seeds_derive_from_the_workload_seed():
    assert workloads.instances(0) == [0, 1]
    assert workloads.instances(3) == [6, 7]
    assert workloads.derived_seeds(0) == {"data": 7, "protocol": 2022, "trend": [0, 1]}
    assert workloads.config("uq-probabilistic", 3)["uq"]["seeds"] == [6, 7]
    with pytest.raises(ValueError):
        workloads.instances(-1)


def test_output_check_counts_each_mismatch_as_a_failed_operation():
    tally = checks.Tally()
    tolerances = {"knn": 1e-12, "svr": 1e-3, "trend": 1e-6}
    reference = {"knn": 0.0620, "svr@0.5": 0.0578, "trend@0.1.mean_epistemic": 0.047}
    got = {"knn": 0.0620 + 1e-9, "svr@0.5": 0.0578 + 5e-4}   # trend value missing
    checks.compare(got, reference, tolerances, tally)
    tally.finite(math.nan, "an RMSE")
    tally.finite(0.05, "an RMSE")
    assert (tally.attempted, tally.failed) == (5, 3)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_run(name, trace):
    tally, metrics, notes = run.measure(name, seed=1, seconds=0.0, trace=trace, tiny=True)
    assert tally.failed == 0, tally.problems
    assert tally.attempted > 0
    result = run.report(name, 1, trace, tally, metrics, notes)
    declared = run.declared("per_layer" if trace else "end_to_end")
    assert set(metrics) == set(declared)
    assert {key: entry["unit"] for key, entry in result["metrics"].items()} == declared
    assert all(math.isfinite(entry["value"]) for entry in result["metrics"].values())
    if trace:
        self_total = sum(notes["self_s"].values())
        assert self_total + metrics["trace.unattributed_s"] == pytest.approx(
            metrics["trace.traced_wall_s"])
    else:
        assert metrics["wall_s"] > metrics["setup_s"] > 0
