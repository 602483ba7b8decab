"""Benchmark of the dimuq CLI: end-to-end metrics per workload, and
per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload in turn and ends with one combined
result line. Run it from the root of a checkout; it imports ``dimuq`` from ``src/``.
Load is a closed loop with one client: one CLI invocation at a time, each
in a fresh process, run to completion. BLAS runs one thread per process,
so BLAS threads x protocol workers never exceeds the 2 workers of
``sweep-parallel``.

A run measures the two instances ``workloads.instances(seed)``.
``--trace 0`` runs one full invocation per instance, then more while the
next is expected to finish within ``--seconds``; before each of them and
at the end it runs three set-up probes (processes that stop at the first
protocol call). ``setup_s`` is
the median over all set-ups; ``wall_s``, ``cpu_s`` and ``peak_rss_mb`` are
per-instance medians averaged over the instances.

``--trace 1`` runs the first instance untraced, then serially untraced
when the workload uses a pool, then serially with every wrap point of
``layers.py`` recording spans, then serially untraced once more, and
reports the per-layer metrics. ``trace.untraced_wall_s`` is the mean of
the serial untraced runs around the traced one.

Every invocation's outputs are checked (``checks.py``). The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric by name
with its unit, the output check and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = 1
SETUP_PROBES_PER_ROUND = 3
RUN_LIMIT_S = 170.0   # every run must end within 180 s

SPEC_PATH = ROOT / "BENCHMARK.json"


def declared(section: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, as
    BENCHMARK.json declares them: the one list of the metrics reported."""
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[section]}


class BenchError(Exception):
    """The benchmark cannot run here (no program to run, or out of time)."""


def _child_env() -> dict:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def invoke(command: str, config_path: Path, work: Path, deadline: float, *,
           probe: bool = False, trace: bool = False, workers: int | None = None) -> dict:
    """Run one CLI invocation in a fresh process and time it from outside."""
    cli_out = work / "cli"
    shutil.rmtree(cli_out, ignore_errors=True)
    result_path = work / "child.json"
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
            "--result", str(result_path)]
    argv += ["--probe"] * probe + ["--trace"] * trace
    argv += ["--", command, "--config", str(config_path), "--out", str(cli_out)]
    if workers is not None:
        argv += ["--workers", str(workers)]

    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    launched = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)   # the pool's workers too
        proc.communicate()
        raise BenchError(f"{command} did not finish within the run's time limit")
    finished = time.monotonic()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)

    try:
        child = json.loads(result_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        child = {}
    setup_at = child.get("setup_at")
    return {
        "returncode": proc.returncode,
        "stderr": stderr,
        "wall": finished - launched,
        "setup": setup_at - launched if setup_at is not None else None,
        "cpu": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "rss_mb": max(child.get("maxrss_self_kb", 0),
                      child.get("maxrss_children_kb", 0)) / 1024.0,
        "spans": child.get("spans"),
        "counters": child.get("counters", {}),
        "cli_out": cli_out,
    }


def check_invocation(run: dict, command: str, config: dict, reference, tally) -> dict:
    """Check one invocation's outputs; return the values a reference holds."""
    tally.check(run["returncode"] == 0,
                f"{command} exited {run['returncode']}: {run['stderr'].strip()[-300:]}")
    if run["returncode"] != 0:
        return {}
    values = checks.summarize(command, config, run["cli_out"], tally)
    if reference is not None:
        checks.compare(values, reference[0], reference[1], tally)
    return values


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; return (tally, metrics, notes)."""
    if not (ROOT / "src" / "dimuq" / "cli.py").is_file():
        raise BenchError(f"no dimuq sources under {ROOT / 'src'}; run from a checkout")
    workload = workloads.WORKLOADS[name]
    work = OUT / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    instances = []
    for instance in workloads.instances(seed):
        config = workloads.config(name, instance, tiny=tiny)
        path = work / f"config-{instance}.json"
        path.write_text(json.dumps(config, indent=2), encoding="utf-8")
        expected, tolerances = checks.load_reference(name, instance)
        reference = (expected, tolerances) if expected is not None and not tiny else None
        instances.append((path, config, reference))

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    tally = checks.Tally()
    notes: dict = {"reference_checked": any(ref for _, _, ref in instances)}

    def full(k: int, **kwargs):
        path, config, reference = instances[k % len(instances)]
        run = invoke(workload.command, path, work, deadline, **kwargs)
        check_invocation(run, workload.command, config, reference, tally)
        return run

    try:
        if not trace:
            setups = []

            def probes(count):
                # set-up time drifts with the machine's load over seconds, so
                # probes are spread over the run rather than taken in one burst
                for k in range(count):
                    path = instances[(len(setups) + k) % len(instances)][0]
                    probe = invoke(workload.command, path, work, deadline, probe=True)
                    tally.check(probe["setup"] is not None and probe["returncode"] == 0,
                                f"set-up probe failed: {probe['stderr'].strip()[-300:]}")
                    if probe["setup"] is not None:
                        setups.append(probe["setup"])

            # every instance once, then more rounds while the next fits
            runs = []
            while not runs or len(runs) < len(instances) or \
                    time.monotonic() - started + runs[-1]["wall"] <= seconds:
                probes(SETUP_PROBES_PER_ROUND)
                runs.append(full(len(runs)))
            probes(SETUP_PROBES_PER_ROUND)
            setups += [r["setup"] for r in runs if r["setup"] is not None]

            def balanced(key):
                # median per instance, then the mean over instances, so the
                # number of rounds that fit does not weight one instance
                per_instance = [statistics.median(r[key] for r in runs[k::len(instances)])
                                for k in range(len(instances))]
                return statistics.fmean(per_instance)

            metrics = {
                "wall_s": balanced("wall"),
                "setup_s": statistics.median(setups) if setups else float("nan"),
                "cpu_s": balanced("cpu"),
                "peak_rss_mb": balanced("rss_mb"),
            }
            per_instance = (f"mean of {len(instances)} per-instance medians, "
                            f"{len(runs)} runs in all")
            notes["samples"] = {"wall_s": per_instance, "setup_s": f"median of {len(setups)}",
                                "cpu_s": per_instance, "peak_rss_mb": per_instance}
        else:
            untraced = full(0)
            serial = [full(0, workers=1)] if workload.workers > 1 else [untraced]
            traced = full(0, trace=True, workers=1)
            # a second serial run after the traced one brackets it, so a
            # drift of the machine's speed cancels out of the overhead
            serial.append(full(0, workers=1))
            serial_wall = statistics.fmean(r["wall"] for r in serial)
            if traced["spans"] is None:
                raise BenchError("the traced invocation returned no spans")
            metrics = layers.layer_metrics(traced["spans"], traced["counters"],
                                           traced["wall"])
            metrics["trace.untraced_wall_s"] = serial_wall
            metrics["trace.overhead_frac"] = (traced["wall"] - serial_wall) / serial_wall
            # untraced serial wall over the pool's, per worker: tracing cost
            # stays out of it, and a workload without a pool scores 1
            metrics["harness.evaluation.pool_efficiency"] = 1.0
            if workload.workers > 1:
                notes["pool_speedup"] = serial_wall / untraced["wall"]
                metrics["harness.evaluation.pool_efficiency"] = (
                    notes["pool_speedup"] / workload.workers)
            notes["self_s"] = layers.self_by_name(traced["spans"])
            spans_path = OUT / f"{name}-seed{seed}-spans.json"
            spans_path.write_text(json.dumps({"wall": traced["wall"],
                                              "spans": traced["spans"],
                                              "counters": traced["counters"]}),
                                  encoding="utf-8")
            notes["spans_file"] = str(spans_path.relative_to(ROOT))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return tally, metrics, notes


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(name: str, seed: int) -> dict:
    import numpy
    import scipy
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_vendor": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "workers": workloads.WORKLOADS[name].workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "workload": name,
        "seed": seed,
        "derived_seeds": [workloads.derived_seeds(i) for i in workloads.instances(seed)],
    }


def report(name: str, seed: int, trace: bool, tally, metrics: dict, notes: dict) -> dict:
    """Print one workload's metrics, output check and environment; return
    its result object."""
    units = declared("per_layer" if trace else "end_to_end")
    print(f"workload {name}, seed {seed}, trace {int(trace)}")
    for key, unit in units.items():
        samples = notes.get("samples", {}).get(key)
        suffix = f"  ({samples})" if samples else ""
        print(f"  {key}: {metrics[key]:.6g} {unit}{suffix}")
    if trace:
        wall = metrics["trace.traced_wall_s"]
        print("  self time by span (share of the traced wall):")
        for span, own in sorted(notes["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"    {span}: {own:.4f} s ({own / wall:.1%})")
        print(f"    unattributed: {metrics['trace.unattributed_s']:.4f} s "
              f"({metrics['trace.unattributed_s'] / wall:.1%})")
        if "pool_speedup" in notes:
            print(f"  untraced pool speedup over serial: {notes['pool_speedup']:.4f}x "
                  f"with {workloads.WORKLOADS[name].workers} workers")
        print(f"  spans written to {notes['spans_file']}")
    failed_frac = tally.failed / max(1, tally.attempted)
    print(f"  failed_frac: {failed_frac:.6g} ({tally.failed} of {tally.attempted} "
          f"operations; reference RMSEs checked: {notes['reference_checked']})")
    for problem in tally.problems[:20]:
        print(f"  FAILED: {problem}")
    print("env: " + json.dumps(environment(name, seed), sort_keys=True))
    return {
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            tally, metrics, notes = measure(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        results[name] = report(name, args.seed, bool(args.trace), tally, metrics, notes)
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {name: r["metrics"] for name, r in results.items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
