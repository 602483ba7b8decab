"""Evaluation protocol: splits, tuning, aggregation, and trend studies."""

from .evaluation import (
    EvalReport,
    Protocol,
    SweepReport,
    UqTrendReport,
    ci_preset,
    fit_fraction,
    fraction_sweep,
    run_evaluation,
    split_rows,
    sweep_fractions,
    uq_trend_study,
    worker_pool,
)
from .families import FAMILY_NAMES, build_model, read_config
from .reports import (
    comparison_table,
    eval_report_to_dict,
    eval_report_to_json,
    sweep_report_to_csv,
    sweep_report_to_dict,
    sweep_report_to_json,
    uq_report_to_csv,
    uq_report_to_dict,
    uq_report_to_json,
)
from .search import CvResult, HyperGrid, grid_search, scale_split
from .splits import Fractions, SplitPlan, dual_mc_split, kfold_indices

__all__ = [
    "Fractions", "SplitPlan", "dual_mc_split", "kfold_indices",
    "HyperGrid", "CvResult", "grid_search", "scale_split",
    "Protocol", "ci_preset", "EvalReport", "SweepReport", "UqTrendReport",
    "split_rows", "run_evaluation", "sweep_fractions", "fraction_sweep", "uq_trend_study",
    "fit_fraction", "worker_pool",
    "FAMILY_NAMES", "build_model", "read_config",
    "comparison_table",
    "eval_report_to_dict", "eval_report_to_json",
    "sweep_report_to_dict", "sweep_report_to_json", "sweep_report_to_csv",
    "uq_report_to_dict", "uq_report_to_json", "uq_report_to_csv",
]
