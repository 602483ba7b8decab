"""The exact text of the report files, on small hand-built inputs."""

import json
from types import SimpleNamespace

import numpy as np

from dimuq import cli
from dimuq.harness import (
    EvalReport,
    SweepReport,
    UqTrendReport,
    comparison_table,
    evaluation,
    sweep_report_to_csv,
    uq_report_to_csv,
)
from dimuq.metrics import ProbabilisticRegressor


def eval_report(family, average, maximum, minimum, stddev, prediction_range):
    return EvalReport(family=family, iteration_ids=(), test_rmses=(), train_rmses=(),
                      chosen_params=(), average=average, maximum=maximum, minimum=minimum,
                      stddev=stddev, prediction_range=prediction_range, failures=(),
                      provenance={}, diagnostics=(), best_iteration=0, best_parity=())


def test_comparison_table_text():
    reports = [eval_report("knn", 1 / 3, 0.5, 0.125, 0.0, 2.0),
               eval_report("svr", 0.0123456789012, 12345678901.5, 1e-12, 0.1 + 0.2,
                           1234567.891234)]
    assert comparison_table(reports) == (
        "family,average_rmse_mm,maximum_rmse_mm,minimum_rmse_mm,stddev_mm,"
        "prediction_range_mm\n"
        "knn,0.3333333333,0.5,0.125,0,2\n"
        "svr,0.0123456789,1.23456789e+10,1e-12,0.3,1234567.891\n")


def test_sweep_csv_text():
    rows = ({"fraction": 0.3, "mean_test_rmse": 1 / 3, "std_test_rmse": 0.0,
             "mean_train_rmse": 2 / 3, "std_train_rmse": 1e-5, "n_iterations": 5,
             "n_failures": 0},
            {"fraction": 0.7, "mean_test_rmse": 0.25, "std_test_rmse": 0.0625,
             "mean_train_rmse": 0.125, "std_train_rmse": 1 / 7, "n_iterations": 3,
             "n_failures": 2})
    report = SweepReport(family="knn", fractions=(0.3, 0.7), rows=rows, reports=())
    assert sweep_report_to_csv(report) == (
        "fraction,mean_test_rmse_mm,std_test_rmse_mm,mean_train_rmse_mm,"
        "std_train_rmse_mm,n_iterations,n_failures\n"
        "0.3,0.3333333333,0,0.6666666667,1e-05,5,0\n"
        "0.7,0.25,0.0625,0.125,0.1428571429,3,2\n")


def test_uq_csv_text():
    rows = ({"fraction": 0.5, "replicates": [{"seed": 0}, {"seed": 1}],
             "mean_aleatoric": 0.05, "std_aleatoric": 0.001, "mean_epistemic": 0.0125,
             "std_epistemic": 2.5e-4, "mean_test_rmse": 0.0625, "std_test_rmse": 1 / 7},)
    report = UqTrendReport(fractions=(0.5,), seeds=(0, 1), n_draws=20, rows=rows)
    assert uq_report_to_csv(report) == (
        "fraction,mean_aleatoric_mm,std_aleatoric_mm,mean_epistemic_mm,"
        "std_epistemic_mm,mean_test_rmse_mm,std_test_rmse_mm\n"
        "0.5,0.05,0.001,0.0125,0.00025,0.0625,0.1428571429\n")


class _TracedModel(ProbabilisticRegressor):
    """Stands in for a trained network model: a hand-written loss trace."""

    network = SimpleNamespace(loss_trace=[(0, 1.5, 0.25, 1.75),
                                          (1, 1 / 3, 1e-7, 1 / 3 + 1e-7)])

    def fit(self, train):
        return self

    def predict_spread(self, features):
        return np.zeros(len(features)), np.ones(len(features)), None


def test_loss_trace_csv_text(tmp_path, monkeypatch):
    # the parity fit builds its model through the harness
    monkeypatch.setattr(evaluation, "build_model", lambda family, params, seed=0: _TracedModel())
    monkeypatch.setattr(cli, "save_snapshot", lambda network, path: None)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"synthetic": {"n": 40}, "uq": {"models": ["bnn_head"]}}))
    assert cli.main(["uq", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "loss_trace_bnn_head.csv").read_text() == (
        "epoch,nll,kl,total\n"
        "0,1.5,0.25,1.75\n"
        "1,0.3333333333,1e-07,0.3333334333\n")
