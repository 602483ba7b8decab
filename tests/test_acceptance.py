"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria that need the measured-parts dataset run only when DIMUQ_DATASET
points at a CSV matching the default schema (override the schema with
DIMUQ_SCHEMA). Everything else runs on built-in fixtures.

Run with: pytest tests/test_acceptance.py -v -s
"""

import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import dimuq
from dimuq import apply_scaler, encode, fit_scaler, load_csv, rmse, synthetic_matrix
from dimuq.bnn import (
    EnsembleConfig,
    HeadConfig,
    decompose_uncertainty,
    ensemble_predict,
    train_ensemble_model,
    train_head_model,
)
from dimuq.cli import main as cli_main
from dimuq.gpr import GprConfig, GprRegressor, KernelParams, gram, predict_gpr
from dimuq.harness import (
    Fractions,
    HyperGrid,
    Protocol,
    dual_mc_split,
    run_evaluation,
    uq_trend_study,
)
from dimuq.schema import default_schema, load_schema

DATASET_PATH = os.environ.get("DIMUQ_DATASET")
SCHEMA_PATH = os.environ.get("DIMUQ_SCHEMA")
HAS_DATASET = bool(DATASET_PATH) and Path(DATASET_PATH or "").exists()
needs_dataset = pytest.mark.skipif(
    not HAS_DATASET,
    reason="set DIMUQ_DATASET to the measured-parts CSV to run real-data criteria",
)

# Table-style tuned configurations for each deterministic family
FAMILY_GRIDS = {
    "knn": {"k": [6], "metric": ["euclidean"]},
    "decision_tree": {"max_depth": [20], "min_samples_leaf": [5],
                      "criterion": ["absolute_error"]},
    "random_forest": {"n_estimators": [300], "max_features": [3],
                      "min_samples_leaf": [3], "bootstrap": [True]},
    "gbt_gbm": {"learning_rate": [0.3], "n_estimators": [120],
                "max_leaf_nodes": [30]},
    "gbt_xgb": {"learning_rate": [0.1], "n_estimators": [100], "max_depth": [5],
                "subsample": [0.9]},
    "svr": {"epsilon": [0.03], "gamma": ["scale"]},
    "mlp": {"hidden_sizes": [[16, 8, 4]], "activation": ["tanh"],
            "optimizer": ["lbfgs"], "max_iter": [5000]},
}


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"CRITERION {number} ({description}): FAIL")
        raise
    print(f"CRITERION {number} ({description}): PASS")


@pytest.fixture(scope="module")
def real_matrix():
    schema = load_schema(SCHEMA_PATH) if SCHEMA_PATH else default_schema()
    return encode(load_csv(DATASET_PATH, schema))


@pytest.fixture(scope="module")
def real_split(real_matrix):
    plan = dual_mc_split(real_matrix.n_rows, Fractions(0.8, 0.2, 0.0), 2022, 0)
    train = real_matrix.take(plan.train)
    test = real_matrix.take(plan.test)
    scaler = fit_scaler(train)
    return apply_scaler(scaler, train), apply_scaler(scaler, test)


def ci_protocol(seed=2022):
    return Protocol(outer_iterations=1, inner_iterations=5,
                    fractions=Fractions(0.8, 0.2, 0.0), k=5, seed=seed)


@needs_dataset
def test_criterion_1_all_families_beat_data_baseline(real_matrix):
    with criterion(1, "deterministic families beat the 0.180 mm baseline"):
        for family_key, grid_axes in FAMILY_GRIDS.items():
            family = "gbt" if family_key.startswith("gbt") else family_key
            report = run_evaluation(family, HyperGrid(family, grid_axes),
                                    real_matrix, ci_protocol())
            print(f"  {family_key}: average {report.average:.5f} mm")
            assert report.average < 0.180, family_key


@needs_dataset
def test_criterion_2_svr_accuracy(real_matrix):
    with criterion(2, "SVR average test RMSE in [0.048, 0.065] mm"):
        report = run_evaluation("svr", HyperGrid("svr", FAMILY_GRIDS["svr"]),
                                real_matrix, ci_protocol())
        print(f"  svr average: {report.average:.5f} mm")
        assert 0.048 <= report.average <= 0.065


@needs_dataset
def test_criterion_3_gbt_accuracy(real_matrix):
    with criterion(3, "boosted-tree configs in [0.045, 0.070] mm"):
        for key in ("gbt_gbm", "gbt_xgb"):
            report = run_evaluation("gbt", HyperGrid("gbt", FAMILY_GRIDS[key]),
                                    real_matrix, ci_protocol())
            print(f"  {key} average: {report.average:.5f} mm")
            assert 0.045 <= report.average <= 0.070, key


@needs_dataset
def test_criterion_4_gpr_accuracy(real_split):
    with criterion(4, "GPR test RMSE in [0.045, 0.065] mm"):
        train, test = real_split
        model = GprRegressor(GprConfig(n_restarts=50, seed=2022)).fit(train)
        value = rmse(model.predict(test.features).values, test.targets)
        print(f"  gpr rmse: {value:.5f} mm")
        assert 0.045 <= value <= 0.065


@needs_dataset
def test_criterion_5_head_model(real_split):
    with criterion(5, "trainable-variance network RMSE and aleatoric bands"):
        train, test = real_split
        network = train_head_model(train, HeadConfig(), seed=2022)
        dist = network.predict_dist(test.features)
        value = rmse(dist.means, test.targets)
        aleatoric = float(dist.stddevs.mean())
        print(f"  rmse: {value:.5f} mm, aleatoric: {aleatoric:.5f} mm")
        assert 0.065 <= value <= 0.095
        assert 0.045 <= aleatoric <= 0.065


@needs_dataset
def test_criterion_6_ensemble_model(real_split):
    with criterion(6, "weight-sampling network RMSE and decomposition bands"):
        train, test = real_split
        network = train_ensemble_model(train, EnsembleConfig(), seed=2022)
        ensemble = ensemble_predict(network, test.features, n_draws=200, seed=2022)
        decomposition = decompose_uncertainty(ensemble)
        value = rmse(ensemble.mixture_means(), test.targets)
        print(f"  rmse: {value:.5f} mm, aleatoric: "
              f"{decomposition.aleatoric.mean():.5f} mm, epistemic: "
              f"{decomposition.epistemic.mean():.5f} mm")
        assert 0.090 <= value <= 0.125
        assert 0.050 <= decomposition.aleatoric.mean() <= 0.080
        assert 0.010 <= decomposition.epistemic.mean() <= 0.035


def test_criterion_7_epistemic_trend_on_fixture():
    with criterion(7, "epistemic uncertainty strictly decreases with data"):
        data = synthetic_matrix(800, 0.05, seed=33)
        report = uq_trend_study({"epochs": 3000, "n_draws": 200}, data, [0.1, 0.5, 0.8],
                                seeds=[0, 1, 2, 3, 4])
        means = [row["mean_epistemic"] for row in report.rows]
        print(f"  epistemic means: {[round(m, 5) for m in means]}")
        assert means[0] > means[1] > means[2]


class TestCriterion8Properties:
    def test_kl_closed_forms_exact(self):
        with criterion(8, "KL closed-form examples exact to 1e-12"):
            from helpers import kl_diag_gaussians
            assert abs(kl_diag_gaussians([0.0], [1.0], [0.0], [1.0])) <= 1e-12
            assert abs(kl_diag_gaussians([1.0], [1.0], [0.0], [1.0]) - 0.5) <= 1e-12
            expected = np.log(0.5) + 2.0 - 0.5
            assert abs(kl_diag_gaussians([0.0], [2.0], [0.0], [1.0]) - expected) <= 1e-12

    def test_gradient_oracles(self):
        with criterion(8, "NLL/ELBO/MLP gradients match finite differences"):
            from test_bnn_losses import TestNll
            from test_bnn_models import TestElbo, TestHeadNetworkGradients
            from test_mlp import TestMlp
            TestNll().test_gradient_matches_finite_differences()
            TestElbo().test_frozen_noise_gradients_match_finite_differences()
            TestHeadNetworkGradients().test_full_model_gradients_match_finite_differences()
            TestMlp().test_gradients_match_finite_differences("tanh")

    def test_gpr_three_point_oracle(self):
        with criterion(8, "GPR 3-point posterior matches dense inverse to 1e-8"):
            X = np.array([[0.0], [0.5], [1.3]])
            y = np.array([0.2, -0.1, 0.4])
            params = KernelParams(amplitude=0.9, length_scale=0.8, noise_level=0.05)
            from helpers import conditioned_gpr, matrix_from_arrays, noisy_self_gram
            model = conditioned_gpr(matrix_from_arrays(X, y), params)
            Q = np.array([[0.2], [0.9]])
            K_inv = np.linalg.inv(noisy_self_gram(X, params))
            k_cross = gram(X, Q, params)
            dist = predict_gpr(model, Q)
            np.testing.assert_allclose(dist.means, k_cross.T @ K_inv @ y, atol=1e-8)

    def test_brute_force_model_oracles(self):
        with criterion(8, "kNN/tree agree with brute-force oracles"):
            from test_neighbors import TestKnn
            from test_tree import TestDecisionTree
            TestKnn().test_matches_exhaustive_sort_oracle()
            TestDecisionTree().test_depth1_matches_exhaustive_search("squared_error")
            TestDecisionTree().test_depth1_matches_exhaustive_search("absolute_error")

    def test_split_properties(self):
        with criterion(8, "split disjointness/coverage/reproducibility"):
            from test_harness import TestDualMcSplit
            TestDualMcSplit().test_disjointness_and_sizes_over_random_cases()

    def test_decomposition_hand_examples(self):
        with criterion(8, "decomposition hand examples exact to 1e-12"):
            from dimuq.bnn.uncertainty import EnsembleOutput
            output = EnsembleOutput(means=[[0.0], [1.0]], stddevs=[[1.0], [2.0]])
            decomposition = decompose_uncertainty(output)
            assert abs(decomposition.aleatoric[0] - np.sqrt(2.5)) <= 1e-12
            assert abs(decomposition.epistemic[0] - np.sqrt(0.5)) <= 1e-12

    def test_aleatoric_recovery_within_20_percent(self):
        with criterion(8, "known-noise aleatoric recovery within 20%"):
            from test_bnn_models import known_noise_head_fit
            network, test = known_noise_head_fit()
            estimate = float(network.predict_dist(test.features).stddevs.mean())
            print(f"  estimated noise: {estimate:.4f} (true 0.05)")
            assert abs(estimate - 0.05) / 0.05 <= 0.20


def test_criterion_9_reproducibility(tmp_path):
    with criterion(9, "identical config and seed give byte-identical reports"):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "synthetic": {"n": 120, "noise_sigma": 0.05, "seed": 9},
            "protocol": {"outer_iterations": 1, "inner_iterations": 3,
                         "fractions": [0.8, 0.2, 0.0], "k": 3, "seed": 17},
            "families": [{"family": "knn", "grid": {"k": [4, 6]}},
                         {"family": "gbt",
                          "grid": {"n_estimators": [20], "max_leaf_nodes": [8]}}],
        }))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli_main(["evaluate", "--config", str(config), "--out", str(out1)]) == 0
        assert cli_main(["evaluate", "--config", str(config), "--out", str(out2)]) == 0
        for name in ("report_knn.json", "report_gbt.json", "comparison.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        # manifests match except for their timestamps
        first = json.loads((out1 / "manifest.json").read_text())
        second = json.loads((out2 / "manifest.json").read_text())
        first.pop("created_utc")
        second.pop("created_utc")
        assert first == second


def test_version_exposed():
    assert dimuq.__version__
