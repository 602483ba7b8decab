"""Output check of one CLI invocation.

Every invocation must exit 0, fail no protocol iteration or family, and
report only finite RMSE, aleatoric and epistemic values. On a seed listed
in ``reference.json`` the reported RMSEs must also match the values the
seed commit produced, within the per-family tolerance recorded there.

Each check is one attempted operation; a check that does not hold is one
failed operation.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def finite(self, value, what: str) -> None:
        self.check(isinstance(value, (int, float)) and math.isfinite(value),
                   f"{what} is not finite ({value!r})")


def _load(path: Path, tally: Tally, what: str):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        tally.check(False, f"{what}: {path.name} missing or unreadable")
        return None


def _eval_report(report: dict, tally: Tally, what: str) -> None:
    for iteration, error in report["failures"]:
        tally.check(False, f"{what} iteration {iteration} failed: {error}")
    for iteration in report["iteration_ids"]:
        tally.check(True, f"{what} iteration {iteration}")
    for value in report["test_rmses_mm"]:
        tally.finite(value, f"{what} test RMSE")
    tally.finite(report["average_rmse_mm"], f"{what} average RMSE")


def _parity_rmse(path: Path) -> float:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    for row in rows:
        for column in ("aleatoric_mm", "epistemic_mm"):
            # a model without that component leaves the cell empty
            if row.get(column) and not math.isfinite(float(row[column])):
                return math.nan
    squared = [(float(r["predicted_mm"]) - float(r["measured_mm"])) ** 2 for r in rows]
    return math.sqrt(sum(squared) / len(squared))


def summarize(command: str, config: dict, out_dir: Path, tally: Tally) -> dict:
    """Check the outputs and return the RMSEs a reference compares against."""
    values: dict[str, float] = {}
    if command == "evaluate":
        for entry in config["families"]:
            family = entry["family"]
            report = _load(out_dir / f"report_{family}.json", tally, family)
            tally.check(report is not None, f"{family} produced a report")
            if report is not None:
                _eval_report(report, tally, family)
                values[family] = report["average_rmse_mm"]
    elif command == "sweep":
        for entry in config["families"]:
            family = entry["family"]
            doc = _load(out_dir / f"sweep_{family}.json", tally, family)
            tally.check(doc is not None, f"{family} produced a sweep")
            if doc is None:
                continue
            for row, report in zip(doc["rows"], doc["reports"]):
                what = f"{family} at fraction {row['fraction']}"
                _eval_report(report, tally, what)
                tally.check(row["n_failures"] == 0, f"{what} has failures")
                values[f"{family}@{row['fraction']}"] = row["mean_test_rmse"]
    elif command == "uq":
        doc = _load(out_dir / "uq_trend.json", tally, "uq trend")
        tally.check(doc is not None, "uq trend produced a report")
        if doc is not None:
            for row in doc["rows"]:
                for replicate in row["replicates"]:
                    what = f"trend fraction {row['fraction']} seed {replicate['seed']}"
                    tally.check(True, what)
                    for key in ("aleatoric", "epistemic", "test_rmse"):
                        tally.finite(replicate[key], f"{what} {key}")
                for key in ("mean_aleatoric", "mean_epistemic", "mean_test_rmse"):
                    values[f"trend@{row['fraction']}.{key}"] = row[key]
        for model in config["uq"]["models"]:
            path = out_dir / f"parity_{model}.csv"
            tally.check(path.exists(), f"{model} produced a parity table")
            if path.exists():
                values[model] = _parity_rmse(path)
                tally.finite(values[model], f"{model} parity RMSE or uncertainty")
    else:
        raise ValueError(f"no output check for command {command!r}")
    return values


def load_reference(workload: str, instance: int):
    """(reference values or None, per-family tolerances in mm)."""
    doc = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    return doc["workloads"].get(workload, {}).get(str(instance)), doc["tolerance_mm"]


def compare(values: dict, reference: dict, tolerances: dict, tally: Tally) -> None:
    """Each reference value must be matched within its family's tolerance."""
    for key, expected in sorted(reference.items()):
        family = key.split("@")[0]
        got = values.get(key)
        ok = got is not None and abs(got - expected) <= tolerances[family]
        tally.check(ok, f"{key}: RMSE {got!r} differs from the reference {expected!r} "
                        f"by more than {tolerances[family]} mm")
