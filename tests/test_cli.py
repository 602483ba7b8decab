import json
from pathlib import Path

import pytest

from dimuq import cli
from dimuq.cli import main
from dimuq.data import generate_synthetic, write_csv
from dimuq.errors import ConditioningError


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


class TestPartialFailure:
    def test_failed_family_flushes_partial_results(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "synthetic": {"n": 60, "noise_sigma": 0.05, "seed": 5},
            "protocol": {"outer_iterations": 1, "inner_iterations": 1,
                         "fractions": [0.8, 0.2, 0.0], "k": 3, "seed": 7},
            "families": [
                {"family": "knn", "grid": {"k": [4]}},
                {"family": "knn", "grid": {"k": [5000]}},  # cannot fit any fold
            ],
        }))
        out = tmp_path / "out"
        code = run_cli("evaluate", "--config", config, "--out", out)
        assert code == 3
        assert (out / "report_knn.json").exists()  # the good family still lands
        failures = read_json(out / "failures.json")
        assert failures and "knn" in failures[0]["family"]

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


class TestBadUqParams:
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
