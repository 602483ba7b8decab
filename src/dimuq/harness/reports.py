"""Report serialization: JSON for machines, CSV tables for humans."""

from __future__ import annotations

from ..metrics import csv_text, json_text
from .evaluation import EvalReport, SweepReport, UqTrendReport


def eval_report_to_dict(report: EvalReport) -> dict:
    return {
        "family": report.family,
        "average_rmse_mm": report.average,
        "maximum_rmse_mm": report.maximum,
        "minimum_rmse_mm": report.minimum,
        "stddev_mm": report.stddev,
        "prediction_range_mm": report.prediction_range,
        "iteration_ids": list(report.iteration_ids),
        "test_rmses_mm": list(report.test_rmses),
        "train_rmses_mm": list(report.train_rmses),
        "chosen_params": list(report.chosen_params),
        "failures": [list(f) for f in report.failures],
        "best_iteration": report.best_iteration,
        "diagnostics": list(report.diagnostics),
        "provenance": report.provenance,
    }


def eval_report_to_json(report: EvalReport) -> str:
    return json_text(eval_report_to_dict(report))


def comparison_table(reports: list[EvalReport]) -> str:
    return csv_text(
        ("family", "average_rmse_mm", "maximum_rmse_mm", "minimum_rmse_mm", "stddev_mm",
         "prediction_range_mm"),
        ((r.family, r.average, r.maximum, r.minimum, r.stddev, r.prediction_range)
         for r in reports))


def sweep_report_to_dict(report: SweepReport) -> dict:
    return {
        "family": report.family,
        "fractions": list(report.fractions),
        "rows": [dict(row) for row in report.rows],
        "reports": [eval_report_to_dict(r) for r in report.reports],
    }


def sweep_report_to_json(report: SweepReport) -> str:
    return json_text(sweep_report_to_dict(report))


def _rows_csv(rows, header) -> str:
    """CSV of sweep or trend rows: a column holds the row values under its
    header name less any ``_mm`` unit suffix."""
    return csv_text(header, ([row[name.removesuffix("_mm")] for name in header]
                             for row in rows))


def sweep_report_to_csv(report: SweepReport) -> str:
    return _rows_csv(report.rows, (
        "fraction", "mean_test_rmse_mm", "std_test_rmse_mm", "mean_train_rmse_mm",
        "std_train_rmse_mm", "n_iterations", "n_failures"))


def uq_report_to_dict(report: UqTrendReport) -> dict:
    return {
        "fractions": list(report.fractions),
        "seeds": list(report.seeds),
        "n_draws": report.n_draws,
        "rows": [dict(row) for row in report.rows],
    }


def uq_report_to_json(report: UqTrendReport) -> str:
    return json_text(uq_report_to_dict(report))


def uq_report_to_csv(report: UqTrendReport) -> str:
    return _rows_csv(report.rows, (
        "fraction", "mean_aleatoric_mm", "std_aleatoric_mm", "mean_epistemic_mm",
        "std_epistemic_mm", "mean_test_rmse_mm", "std_test_rmse_mm"))
