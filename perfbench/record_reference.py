"""Record the reference RMSEs the output check compares against.

    python3 perfbench/record_reference.py --instances 0 1 2

Runs every workload once per instance seed (see ``workloads.py``),
untraced, and stores the checked values
in ``reference.json``, keeping its per-family tolerances. Run it only on
the commit whose results are the reference; a change that alters results
must explain why instead of re-recording.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import time

import checks
import run
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instances", type=int, nargs="+", required=True)
    args = parser.parse_args()
    doc = json.loads(checks.REFERENCE_PATH.read_text(encoding="utf-8"))
    for name, workload in workloads.WORKLOADS.items():
        for seed in args.instances:
            config = workloads.config(name, seed)
            work = run.OUT / f"reference-{name}-{seed}-{os.getpid()}"
            work.mkdir(parents=True, exist_ok=True)
            config_path = work / "config.json"
            config_path.write_text(json.dumps(config), encoding="utf-8")
            try:
                result = run.invoke(workload.command, config_path, work,
                                    time.monotonic() + run.RUN_LIMIT_S)
                tally = checks.Tally()
                values = run.check_invocation(result, workload.command, config, None, tally)
                if tally.failed:
                    raise SystemExit(f"{name} seed {seed}: {tally.problems}")
            finally:
                shutil.rmtree(work, ignore_errors=True)
            doc["workloads"].setdefault(name, {})[str(seed)] = values
            print(f"{name} seed {seed}: {result['wall']:.2f} s", flush=True)
    checks.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
