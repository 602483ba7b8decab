import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dimuq
from dimuq import cli, synthetic_matrix
from dimuq.cli import main
from dimuq.data import generate_synthetic, write_csv
from dimuq.errors import ConditioningError, ProtocolError
from dimuq.harness import (Fractions, HyperGrid, Protocol, dual_mc_split, evaluation,
                           run_evaluation)
from dimuq.schema import default_schema

from helpers import no_iterations, record_pools, record_scaling, row_ids, scaled_splits


@pytest.fixture()
def synthetic_csv(tmp_path):
    path = tmp_path / "parts.csv"
    write_csv(generate_synthetic(60, 0.05, seed=3), path)
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_json(path):
    return json.loads(Path(path).read_text())


class TestIngest:
    def test_summary_reports_rows_and_width(self, synthetic_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("ingest", "--data", synthetic_csv, "--out", out) == 0
        summary = read_json(out / "summary.json")
        assert summary["rows"] == 60
        assert summary["encoded_width"] == 16
        assert (out / "encoded_matrix.csv").exists()
        assert (out / "manifest.json").exists()
        assert "60 rows" in capsys.readouterr().out

    def test_level_inventories_present(self, synthetic_csv, tmp_path):
        out = tmp_path / "out"
        run_cli("ingest", "--data", synthetic_csv, "--out", out)
        inventories = read_json(out / "summary.json")["level_inventories"]
        assert set(inventories["material"]) == {"UMA", "RPU", "EPX"}
        assert sum(inventories["material"].values()) == 60

    def test_schema_mismatch_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,columns\n1,2\n")
        assert run_cli("ingest", "--data", bad, "--out", tmp_path / "o") == 2

    def test_malformed_schema_exits_2(self, synthetic_csv, tmp_path):
        default = default_schema()
        columns = [dataclasses.asdict(column) for column in default.columns]
        columns[1]["open_levels"] = "false"
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"columns": columns,
                                      "selected_inputs": default.selected_inputs}))
        assert run_cli("ingest", "--data", synthetic_csv, "--schema", schema,
                       "--out", tmp_path / "o") == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert run_cli("ingest", "--data", tmp_path / "nope.csv",
                       "--out", tmp_path / "o") == 2


class TestEvaluate:
    def make_config(self, tmp_path, **overrides):
        config = {
            "synthetic": {"n": 100, "noise_sigma": 0.05, "seed": 5},
            "protocol": {"outer_iterations": 1, "inner_iterations": 2,
                         "fractions": [0.8, 0.2, 0.0], "k": 3, "seed": 7},
            "families": [{"family": "knn", "grid": {"k": [4]}}],
        }
        config.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_single_family_report(self, tmp_path, capsys):
        config = self.make_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli("evaluate", "--config", config, "--out", out) == 0
        report = read_json(out / "report_knn.json")
        assert report["family"] == "knn"
        assert len(report["test_rmses_mm"]) == 2
        assert (out / "comparison.csv").exists()

    def test_multi_family_comparison_table(self, tmp_path):
        config = self.make_config(
            tmp_path,
            families=[{"family": "knn", "grid": {"k": [4]}},
                      {"family": "decision_tree",
                       "grid": {"max_depth": [3], "min_samples_leaf": [2]}}],
        )
        out = tmp_path / "out"
        assert run_cli("evaluate", "--config", config, "--out", out) == 0
        lines = (out / "comparison.csv").read_text().strip().split("\n")
        assert lines[0].startswith("family,average_rmse_mm,maximum_rmse_mm")
        assert len(lines) == 3

    def test_invalid_fraction_exits_3(self, tmp_path):
        config = self.make_config(
            tmp_path, protocol={"outer_iterations": 1, "inner_iterations": 1,
                                "fractions": [1.5, 0.2, 0.0], "k": 3, "seed": 7})
        assert run_cli("evaluate", "--config", config, "--out", tmp_path / "o") == 3

    def test_no_families_exits_3(self, tmp_path):
        config = self.make_config(tmp_path, families=[])
        assert run_cli("evaluate", "--config", config, "--out", tmp_path / "o") == 3

    def test_integer_fraction_writes_the_same_report(self, tmp_path):
        protocol = {"outer_iterations": 1, "inner_iterations": 2, "k": 3, "seed": 7}
        reports = []
        for name, fractions in (("int", [0.8, 0.2, 0]), ("float", [0.8, 0.2, 0.0])):
            config = self.make_config(tmp_path, protocol={**protocol, "fractions": fractions})
            assert run_cli("evaluate", "--config", config, "--out", tmp_path / name) == 0
            reports.append((tmp_path / name / "report_knn.json").read_bytes())
        assert reports[0] == reports[1]

    def test_reports_are_byte_identical_across_reruns(self, tmp_path):
        config = self.make_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("evaluate", "--config", config, "--out", out1) == 0
        assert run_cli("evaluate", "--config", config, "--out", out2) == 0
        assert (out1 / "report_knn.json").read_bytes() == \
            (out2 / "report_knn.json").read_bytes()
        assert (out1 / "comparison.csv").read_bytes() == \
            (out2 / "comparison.csv").read_bytes()


class TestSweep:
    def test_single_fraction_emits_parity(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "synthetic": {"n": 100, "noise_sigma": 0.05, "seed": 5},
            "protocol": {"outer_iterations": 1, "inner_iterations": 2,
                         "fractions": [0.8, 0.2, 0.0], "k": 3, "seed": 7},
            "families": [{"family": "knn", "grid": {"k": [4]}}],
            "sweep_fractions": [0.5],
        }))
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", config, "--out", out) == 0
        sweep = read_json(out / "sweep_knn.json")
        assert len(sweep["rows"]) == 1
        parity = (out / "parity_knn.csv").read_text().strip().split("\n")
        assert parity[0] == "measured_mm,predicted_mm,aleatoric_mm,epistemic_mm"
        assert len(parity) > 1
        assert all(line.endswith(",,") for line in parity[1:])  # point estimates only


def count_pools(monkeypatch) -> list:
    """Wrap the real ``ProcessPoolExecutor`` so that every pool the harness
    builds is appended to the returned list."""
    real = evaluation.ProcessPoolExecutor
    built = []

    def counting(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", counting)
    return built


class TestWorkerPool:
    FAMILIES = [{"family": "knn", "grid": {"k": [3, 5]}},
                {"family": "decision_tree", "grid": {"max_depth": [2, 4]}}]

    def write_config(self, tmp_path, families=FAMILIES, inner_iterations=2, **extra):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "synthetic": {"n": 80, "noise_sigma": 0.05, "seed": 5},
            "protocol": {"outer_iterations": 1, "inner_iterations": inner_iterations,
                         "fractions": [0.8, 0.2, 0.0], "k": 3, "seed": 7},
            "families": families,
            **extra,
        }))
        return path

    def outputs_by_workers(self, tmp_path, monkeypatch, command, config) -> dict:
        """Run ``command`` with 1, then 2 workers; return per worker count
        the pools built and every output file but the manifest."""
        built = count_pools(monkeypatch)
        runs = {}
        for workers in (1, 2):
            before = len(built)
            out = tmp_path / f"out{workers}"
            assert run_cli(command, "--config", config, "--out", out,
                           "--workers", workers) == 0
            assert multiprocessing.active_children() == []
            files = {path.name: path.read_bytes() for path in sorted(out.iterdir())
                     if path.name != "manifest.json"}
            runs[workers] = (len(built) - before, files)
        return runs

    def test_sweep_shares_one_pool_and_writes_the_serial_bytes(self, tmp_path, monkeypatch):
        config = self.write_config(tmp_path, sweep_fractions=[0.3, 0.6, 0.9])
        runs = self.outputs_by_workers(tmp_path, monkeypatch, "sweep", config)
        (serial_pools, serial), (pools, parallel) = runs[1], runs[2]
        assert (serial_pools, pools) == (0, 1)
        assert len(serial) == 6  # sweep JSON, sweep CSV and parity per family
        assert parallel == serial

    def test_evaluate_shares_one_pool_across_families(self, tmp_path, monkeypatch):
        families = [*self.FAMILIES, {"family": "knn", "grid": {"k": [4]}}]
        config = self.write_config(tmp_path, families)
        runs = self.outputs_by_workers(tmp_path, monkeypatch, "evaluate", config)
        (serial_pools, serial), (pools, parallel) = runs[1], runs[2]
        assert (serial_pools, pools) == (0, 1)
        assert parallel == serial

    @pytest.mark.parametrize("command, families, inner_iterations, workers, pools", [
        # families x fractions x outer x inner tasks: 2 x 2 x 1 x 2 = 8
        pytest.param("sweep", FAMILIES, 2, 1000, [8], id="sweep-8-tasks-1000-workers"),
        pytest.param("sweep", FAMILIES, 2, 3, [3], id="sweep-8-tasks-3-workers"),
        pytest.param("evaluate", FAMILIES, 1, 1000, [2], id="evaluate-2-tasks-1000-workers"),
        # a single task needs no pool
        pytest.param("evaluate", FAMILIES[:1], 1, 2, [], id="evaluate-1-task-2-workers"),
    ])
    def test_pool_never_has_more_workers_than_tasks(self, tmp_path, monkeypatch, command,
                                                    families, inner_iterations, workers,
                                                    pools):
        built = record_pools(monkeypatch)
        config = self.write_config(tmp_path, families, inner_iterations,
                                   sweep_fractions=[0.4, 0.8])
        assert run_cli(command, "--config", config, "--out", tmp_path / "out",
                       "--workers", workers) == 0
        assert built == pools


class TestUq:
    def make_config(self, tmp_path, **uq):
        config = {
            "synthetic": {"n": 120, "noise_sigma": 0.05, "seed": 5},
            "protocol": {"outer_iterations": 1, "inner_iterations": 1,
                         "fractions": [0.8, 0.2, 0.0], "k": 3, "seed": 7},
            "uq": uq,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_draws_below_two_exits_3(self, tmp_path):
        config = self.make_config(tmp_path, draws=1, models=["bnn_ensemble"])
        assert run_cli("uq", "--config", config, "--out", tmp_path / "o") == 3

    def test_ensemble_parity_has_both_uncertainty_columns(self, tmp_path):
        config = self.make_config(
            tmp_path, draws=25, models=["bnn_ensemble"],
            bnn_ensemble={"epochs": 60})
        out = tmp_path / "out"
        assert run_cli("uq", "--config", config, "--out", out) == 0
        lines = (out / "parity_bnn_ensemble.csv").read_text().strip().split("\n")
        cells = lines[1].split(",")
        assert len(cells) == 4
        assert all(cell for cell in cells)  # all four columns populated
        trace = (out / "loss_trace_bnn_ensemble.csv").read_text().split("\n")
        assert trace[0] == "epoch,nll,kl,total"
        assert (out / "snapshot_bnn_ensemble.npz").exists()

    def test_loss_trace_kl_column_per_network(self, tmp_path):
        # the head's kl is its weighted output-prior penalty; the ensemble's
        # is the unweighted weight KL, weighted by 1 / training rows in total
        config = self.make_config(tmp_path, draws=5, models=["bnn_head", "bnn_ensemble"],
                                  bnn_head={"epochs": 5}, bnn_ensemble={"epochs": 5})
        out = tmp_path / "out"
        assert run_cli("uq", "--config", config, "--out", out) == 0
        n_train = dual_mc_split(120, Fractions(0.8, 0.2, 0.0), 7, 0).train.size
        for family, kl_weight in (("bnn_head", 1.0), ("bnn_ensemble", 1.0 / n_train)):
            lines = (out / f"loss_trace_{family}.csv").read_text().strip().split("\n")
            assert lines[0] == "epoch,nll,kl,total"
            for line in lines[1:]:
                nll, kl, total = map(float, line.split(",")[1:])
                assert kl > 0.0
                # each cell is written to 10 significant digits
                assert total == pytest.approx(nll + kl_weight * kl,
                                              abs=1e-9 * (abs(nll) + abs(kl) + abs(total)))

    def test_gpr_parity_has_aleatoric_only(self, tmp_path):
        config = self.make_config(tmp_path, models=["gpr"], gpr={"n_restarts": 0})
        out = tmp_path / "out"
        assert run_cli("uq", "--config", config, "--out", out) == 0
        lines = (out / "parity_gpr.csv").read_text().strip().split("\n")
        cells = lines[1].split(",")
        assert cells[2] != ""  # aleatoric populated
        assert cells[3] == ""  # no epistemic column from a single model

    def test_trend_study_outputs(self, tmp_path):
        config = self.make_config(
            tmp_path, draws=20, fractions=[0.3, 0.7], seeds=[0, 1],
            bnn_ensemble={"epochs": 40})
        out = tmp_path / "out"
        assert run_cli("uq", "--config", config, "--out", out) == 0
        trend = read_json(out / "uq_trend.json")
        assert trend["fractions"] == [0.3, 0.7]
        assert len(trend["rows"][0]["replicates"]) == 2
        csv_lines = (out / "uq_trend.csv").read_text().strip().split("\n")
        assert len(csv_lines) == 3

    def test_every_scaler_fit_sees_only_its_draws_training_rows(self, tmp_path, monkeypatch):
        calls = record_scaling(monkeypatch)
        # 120 x 0.33 and 120 x 0.67 are not whole, so each draw leaves a row
        # out of both train and test and the trend study's complement differs
        # from the draw's test side
        config = self.make_config(
            tmp_path, draws=5, fractions=[0.33, 0.67], seeds=[0, 1], models=["gpr"],
            gpr={"n_restarts": 0}, bnn_ensemble={"epochs": 5})
        assert run_cli("uq", "--config", config, "--out", tmp_path / "out") == 0
        data = synthetic_matrix(120, 0.05, 5)
        # the trend study's replicates, then the parity run at protocol.seed
        draws = [(fraction, seed, True) for fraction in (0.33, 0.67) for seed in (0, 1)]
        draws.append((0.8, 7, False))
        fits = scaled_splits(calls)
        assert len(fits) == len(draws)
        for (train, test), (fraction, seed, complement) in zip(fits, draws):
            plan = dual_mc_split(120, Fractions(fraction, 1 - fraction, 0.0), seed, 0)
            np.testing.assert_array_equal(row_ids(train, data), plan.train)
            if complement:
                assert plan.train.size + plan.test.size < 120
                np.testing.assert_array_equal(row_ids(test, data),
                                              np.setdiff1d(np.arange(120), plan.train))
            else:
                np.testing.assert_array_equal(row_ids(test, data), plan.test)


class TestManifest:
    def test_run_id_stable_and_timestamp_only_in_manifest(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "synthetic": {"n": 80, "noise_sigma": 0.05, "seed": 2},
            "protocol": {"outer_iterations": 1, "inner_iterations": 1,
                         "fractions": [0.8, 0.2, 0.0], "k": 3, "seed": 7},
            "families": [{"family": "knn", "grid": {"k": [4]}}],
        }))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli("evaluate", "--config", config, "--out", out1)
        run_cli("evaluate", "--config", config, "--out", out2)
        first = read_json(out1 / "manifest.json")
        second = read_json(out2 / "manifest.json")
        assert first["run_id"] == second["run_id"]
        stripped1 = {k: v for k, v in first.items() if k != "created_utc"}
        stripped2 = {k: v for k, v in second.items() if k != "created_utc"}
        assert stripped1 == stripped2


WRONG_JSON_TYPES = [
    ("knn", {"k": [6.0]}),
    ("mlp", {"learning_rate": ["0.1"]}),
    ("gbt", {"n_estimators": [2.0]}),
    # on a path axis, and beside one
    ("knn", {"k": [6], "metric": [["euclidean"]]}),
    ("decision_tree", {"max_depth": ["4"]}),
]


class TestPartialFailure:
    @staticmethod
    def partial_failure(tmp_path, command, config) -> tuple[int, list]:
        """Run ``command`` with 1, then 2 workers; each run must write the
        same exit code and ``failures.json``, which are returned."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        results = []
        for workers in (1, 2):
            out = tmp_path / f"out{workers}"
            code = run_cli(command, "--config", path, "--out", out, "--workers", workers)
            results.append((code, read_json(out / "failures.json")))
            assert (out / "manifest.json").exists()
        assert results[0] == results[1]
        return results[0]

    def test_failed_family_flushes_partial_results(self, tmp_path):
        code, failures = self.partial_failure(tmp_path, "evaluate", {
            "synthetic": {"n": 60, "noise_sigma": 0.05, "seed": 5},
            "protocol": {"outer_iterations": 1, "inner_iterations": 2,
                         "fractions": [0.8, 0.2, 0.0], "k": 3, "seed": 7},
            "families": [
                {"family": "knn", "grid": {"k": [4]}},
                {"family": "knn", "grid": {"k": [5000]}},  # above every training side
            ],
        })
        assert code == 3
        for workers in (1, 2):  # the good family still lands
            assert (tmp_path / f"out{workers}" / "report_knn.json").exists()
        assert failures == [{"family": "knn", "error": (
            "ProtocolError: every iteration failed; first error: "
            "ConfigError: k=5000 exceeds 48 training rows")}]

    def test_failed_sweep_family_flushes_partial_results(self, tmp_path):
        code, failures = self.partial_failure(tmp_path, "sweep", {
            "synthetic": {"n": 60, "noise_sigma": 0.05, "seed": 5},
            "protocol": {"outer_iterations": 1, "inner_iterations": 2, "k": 3, "seed": 7},
            "families": [
                {"family": "knn", "grid": {"k": [4]}},
                {"family": "knn", "grid": {"k": [31]}},  # above the 30 training rows at 0.5
                {"family": "decision_tree", "grid": {"max_depth": [3]}},
            ],
            "sweep_fractions": [0.5, 0.9],
        })
        assert code == 3
        for workers in (1, 2):
            out = tmp_path / f"out{workers}"
            assert (out / "sweep_knn.json").exists()  # the good family still lands
            assert (out / "sweep_decision_tree.json").exists()  # and later ones run
        assert failures == [{"family": "knn", "error": (
            "ProtocolError: every iteration failed; first error: "
            "ConfigError: k=31 exceeds 30 training rows")}]

    def test_conditioning_failure_exits_4(self, tmp_path, monkeypatch):
        def ill_conditioned(family, *args, **kwargs):
            raise ConditioningError("kernel matrix is not positive definite")

        monkeypatch.setattr(cli, "run_evaluation", ill_conditioned)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "synthetic": {"n": 60, "noise_sigma": 0.05, "seed": 5},
            "protocol": {"outer_iterations": 1, "inner_iterations": 1,
                         "fractions": [0.8, 0.2, 0.0], "k": 3, "seed": 7},
            "families": [{"family": "knn", "grid": {"k": [4]}}],
        }))
        out = tmp_path / "out"
        assert run_cli("evaluate", "--config", config, "--out", out) == cli.EXIT_NUMERIC
        assert read_json(out / "failures.json") == [{
            "family": "knn",
            "error": "ConditioningError: kernel matrix is not positive definite",
        }]

    def test_failed_uq_model_flushes_the_others(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "synthetic": {"n": 120},
            "uq": {"models": ["bnn_head", "bnn_ensemble"], "draws": 5,
                   "bnn_head": {"epochs": 20, "learning_rate": 1e300},
                   "bnn_ensemble": {"epochs": 20}},
        }))
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert run_cli("uq", "--config", config, "--out", out) == cli.EXIT_NUMERIC
        [failure] = read_json(out / "failures.json")
        assert failure["family"] == "bnn_head"
        assert failure["error"].startswith("TrainingError: ")
        assert (out / "manifest.json").exists()
        assert not (out / "parity_bnn_head.csv").exists()
        for name in ("parity_bnn_ensemble.csv", "loss_trace_bnn_ensemble.csv",
                     "snapshot_bnn_ensemble.npz"):  # the model after it still runs
            assert (out / name).exists()

    def test_failed_trend_study_flushes_the_models(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "synthetic": {"n": 60},
            "uq": {"models": ["gpr"], "draws": 5, "fractions": [0.5],
                   "bnn_ensemble": {"epochs": 5, "learning_rate": 1e300}},
        }))
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert run_cli("uq", "--config", config, "--out", out) == cli.EXIT_NUMERIC
        [failure] = read_json(out / "failures.json")
        assert failure["family"] == "uq_trend"
        assert failure["error"].startswith("TrainingError: ")
        assert not (out / "uq_trend.json").exists()
        assert (out / "manifest.json").exists()
        assert (out / "parity_gpr.csv").exists()  # the model after it still runs

    def test_trend_fraction_outside_the_unit_interval_exits_3_before_training(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"synthetic": {"n": 60},
                                      "uq": {"models": ["gpr"], "fractions": [1.5]}}))
        out = tmp_path / "out"
        assert run_cli("uq", "--config", config, "--out", out) == 3
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("family", ["knn", "decision_tree", "random_forest", "gbt"])
    def test_overflowing_predictions_exit_4(self, family):
        matrix = synthetic_matrix(120, 0.05, 7)
        matrix = dataclasses.replace(matrix, targets=np.full(matrix.n_rows, 1.6e308))
        protocol = Protocol(outer_iterations=1, inner_iterations=1, k=2, seed=0)
        grid = HyperGrid(family, {"n_estimators": [3]} if family in ("random_forest", "gbt")
                         else {})
        with np.errstate(all="ignore"), pytest.raises(ProtocolError) as caught:
            run_evaluation(family, grid, matrix, protocol)
        assert "NumericError: prediction contains non-finite values" in str(caught.value)
        assert cli._exit_code(caught.value) == cli.EXIT_NUMERIC

    @staticmethod
    def failure(tmp_path, workers, family, grid, code=3) -> str:
        """The error of a one-family evaluate that must exit ``code`` and
        write no report."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "synthetic": {"n": 60, "noise_sigma": 0.05, "seed": 5},
            "protocol": {"outer_iterations": 1, "inner_iterations": 2,
                         "fractions": [0.8, 0.2, 0.0], "k": 2, "seed": 7,
                         "workers": workers},
            "families": [{"family": family, "grid": grid}],
        }))
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert run_cli("evaluate", "--config", config, "--out", out) == code
        assert not (out / f"report_{family}.json").exists()
        [failure] = read_json(out / "failures.json")
        return failure["error"]

    # A one-candidate grid is not searched: each iteration's own fit fails.
    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_iteration_diverging_exits_4(self, tmp_path, workers):
        assert self.failure(tmp_path, workers, "bnn_head",
                            {"learning_rate": [1e300], "epochs": [3]},
                            code=cli.EXIT_NUMERIC).startswith(
            "ProtocolError: every iteration failed; first error: TrainingError: ")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_candidate_diverging_exits_4(self, tmp_path, workers):
        assert self.failure(tmp_path, workers, "bnn_head",
                            {"learning_rate": [1e300], "epochs": [3, 4]},
                            code=cli.EXIT_NUMERIC).startswith(
            "ProtocolError: every iteration failed; first error: SearchError: "
            "every candidate failed; first error: TrainingError: ")

    # A bad one-candidate value fails at its up-front build, before any
    # iteration runs; with two bad candidates every search fails.
    @pytest.mark.parametrize("workers", [1, 2])
    def test_wrong_typed_grid_value_exits_3(self, tmp_path, monkeypatch, workers):
        no_iterations(monkeypatch)
        assert self.failure(tmp_path, workers, "knn", {"k": ["6"]}).startswith(
            "ConfigError: bad knn parameters")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_two_wrong_typed_grid_values_exit_3(self, tmp_path, workers):
        assert self.failure(tmp_path, workers, "knn", {"k": ["6", "7"]}).startswith(
            "ProtocolError: every iteration failed; first error: SearchError: "
            "every candidate failed; first error: ConfigError: bad knn parameters")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_zero_epochs_exits_3_before_training(self, tmp_path, monkeypatch, workers):
        no_iterations(monkeypatch)
        assert self.failure(tmp_path, workers, "bnn_head", {"epochs": [0]}) == (
            "ConfigError: epochs must be >= 1")

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("family, grid", WRONG_JSON_TYPES)
    def test_grid_value_of_the_wrong_json_type_exits_3(self, tmp_path, monkeypatch, family,
                                                        grid, workers):
        no_iterations(monkeypatch)
        assert self.failure(tmp_path, workers, family, grid).startswith(
            f"ConfigError: bad {family} parameters")

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("family, grid", WRONG_JSON_TYPES)
    def test_two_grid_values_of_the_wrong_json_type_exit_3(self, tmp_path, family, grid,
                                                            workers):
        first = next(iter(grid))
        grid = {**grid, first: grid[first] * 2}  # two candidates, both bad
        assert self.failure(tmp_path, workers, family, grid).startswith(
            "ProtocolError: every iteration failed; first error: SearchError: "
            f"every candidate failed; first error: ConfigError: bad {family} parameters")


def _small_config(command, **overrides):
    config = {
        "synthetic": {"n": 60, "noise_sigma": 0.05, "seed": 5},
        "protocol": {"outer_iterations": 1, "inner_iterations": 1, "k": 2, "seed": 7},
    }
    if command == "uq":
        config["uq"] = {"models": ["gpr"], "draws": 5}
    else:
        config["families"] = [{"family": "knn", "grid": {"k": [1]}}]
    for path, value in overrides.items():
        *blocks, key = path.split(".")
        target = config
        for block in blocks:
            target = target[block]
        target[key] = value
    return config


class TestBadConfig:
    @pytest.mark.parametrize("command, overrides", [
        ("evaluate", {"protocol.k": "x"}),
        ("evaluate", {"protocol.k": 5.5}),
        ("evaluate", {"protocol.workers": True}),
        ("evaluate", {"protocol.fractions": [0.8, "0.2", 0.0]}),
        ("evaluate", {"protocol.test_complement": True}),
        ("evaluate", {"protocol": 5}),
        ("evaluate", {"protcol": {}}),
        ("evaluate", {"synthetic.n": "x"}),
        ("evaluate", {"synthetic.nn": 5}),
        ("evaluate", {"families": [{"family": "knn", "grd": {"k": [4]}}]}),
        ("evaluate", {"families": [{"family": "knn", "grid": [1]}]}),
        ("evaluate", {"families": [{"family": "knn", "grid": {"k": 5}}]}),
        ("evaluate", {"families": [{"family": "knn", "grid": {"metric": "manhattan"}}]}),
        ("sweep", {"sweep_fractons": [0.5]}),
        ("sweep", {"sweep_fractions": ["0.5"]}),
        ("uq", {"uq.parity_fraction": "x"}),
        ("uq", {"uq.model": ["gpr"]}),
        ("uq", {"uq.seeds": [1.5]}),
        ("evaluate", {"families": [{"family": "knnn"}, {"family": "knn", "grid": {"k": [1]}}]}),
        ("sweep", {"sweep_fractions": []}),
        ("sweep", {"sweep_fractions": [0.8, 0.5, 0.3]}),
        ("uq", {"uq": {}}),
        ("uq", {"uq.parity_fraction": 0.0}),
        ("uq", {"uq.parity_fraction": 1.0, "uq.fractions": [0.5],
                "uq.bnn_ensemble": {"epochs": 5}}),
        ("evaluate", {"protocol.scaler_method": "zscor"}),
        ("evaluate", {"protocol.scaler_method": "zscor", "protocol.grid_mode": "per_outer",
                      "families": [{"family": "knn", "grid": {"k": [1, 2]}}]}),
        ("uq", {"protocol.scaler_method": "zscor"}),
        ("evaluate", {"synthetic.n": 0}),
        ("evaluate", {"synthetic.noise_sigma": -1}),
    ])
    def test_exits_3_and_writes_no_report(self, tmp_path, command, overrides):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(_small_config(command, **overrides)))
        out = tmp_path / "out"
        assert run_cli(command, "--config", config, "--out", out) == 3
        assert not out.exists()


class TestBadUqParams:
    @pytest.mark.parametrize("uq", [
        {"models": ["gpr"], "gpr": {"lengthscale": 2.0}},
        {"models": ["gpr", "bnn_ensmble"]},
        {"models": ["gpr"], "gpr": {"amplitude": "x"}},
        {"models": ["bnn_head"], "bnn_head": {"epochs": "many"}},
        {"models": ["bnn_ensemble"], "bnn_ensemble": {"n_draws": 50}},
        {"models": ["gpr"], "gpr": {"nu": 2.5}},
        {"models": ["bnn_ensemble"], "bnn_ensemble": {"seed": 3}},
        {"models": ["gpr"], "gpr": {"seed": 3}},
        {"models": ["bnn_ensemble"], "draws": 1},
        {"models": ["bnn_head"], "bnn_head": {"epochs": 0}},
        {"models": ["bnn_head"], "bnn_head": {"learning_rate": 0}},
        {"models": ["bnn_ensemble"], "bnn_ensemble": {"kl_weight": -0.5}},
        {"models": ["gpr"], "gpr": {"n_restarts": -3}},
        {"models": ["bnn_head"], "bnn_head": {"output_prior_regularizer": False}},
        {"models": ["gpr"], "gpr": {"nu": 1.5}},
    ])
    def test_bad_model_block_exits_3_before_training(self, tmp_path, uq):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "synthetic": {"n": 60, "noise_sigma": 0.05, "seed": 5},
            "protocol": {"seed": 7},
            "uq": {"draws": 5, "fractions": [0.5], **uq},
        }))
        out = tmp_path / "o"
        assert run_cli("uq", "--config", config, "--out", out) == 3
        assert not (out / "uq_trend.json").exists()

    def test_unknown_network_parameter_exits_3(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "synthetic": {"n": 60, "noise_sigma": 0.05, "seed": 5},
            "protocol": {"outer_iterations": 1, "inner_iterations": 1,
                         "fractions": [0.8, 0.2, 0.0], "k": 3, "seed": 7},
            "uq": {"models": ["bnn_ensemble"], "draws": 5,
                   "bnn_ensemble": {"no_such_knob": 1}},
        }))
        assert run_cli("uq", "--config", config, "--out", tmp_path / "o") == 3


def test_importing_the_cli_loads_no_scipy():
    # only GPR needs scipy, and it imports it on its first call
    code = "import sys, dimuq.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    src = str(Path(dimuq.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env={**os.environ, "PYTHONPATH": src})
    assert result.stdout == "[]\n"
