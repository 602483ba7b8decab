import numpy as np
import pytest

from dimuq import synthetic_matrix
from dimuq.errors import ConfigError, ProtocolError, SearchError
from dimuq.harness import (
    Fractions,
    HyperGrid,
    Protocol,
    ci_preset,
    dual_mc_split,
    fraction_sweep,
    grid_search,
    kfold_indices,
    run_evaluation,
)
from dimuq.metrics import rmse
from dimuq.models import KnnConfig, KnnRegressor


class TestDualMcSplit:
    def test_exact_fractions(self):
        plan = dual_mc_split(10, Fractions(0.8, 0.2, 0.0), seed=0, iteration=0)
        assert plan.train.size == 8
        assert plan.test.size == 2
        combined = np.sort(np.concatenate([plan.train, plan.test]))
        np.testing.assert_array_equal(combined, np.arange(10))

    def test_deterministic_replay(self):
        first = dual_mc_split(100, Fractions(0.6, 0.3, 0.1), seed=4, iteration=7)
        second = dual_mc_split(100, Fractions(0.6, 0.3, 0.1), seed=4, iteration=7)
        np.testing.assert_array_equal(first.train, second.train)
        np.testing.assert_array_equal(first.test, second.test)
        np.testing.assert_array_equal(first.holdout, second.holdout)

    def test_different_iterations_reshuffle(self):
        first = dual_mc_split(100, Fractions(0.8, 0.2, 0.0), seed=4, iteration=0)
        second = dual_mc_split(100, Fractions(0.8, 0.2, 0.0), seed=4, iteration=1)
        assert not np.array_equal(first.train, second.train)

    def test_full_dataset_row_count(self):
        plan = dual_mc_split(2025, Fractions(0.8, 0.2, 0.0), seed=0, iteration=0)
        assert plan.train.size == 1620

    def test_disjointness_and_sizes_over_random_cases(self):
        rng = np.random.default_rng(0)
        for _ in range(150):
            n = int(rng.integers(3, 400))
            f_train = float(rng.uniform(0.1, 0.7))
            f_test = float(rng.uniform(0.05, 1.0 - f_train - 0.05))
            f_hold = float(rng.uniform(0.0, 1.0 - f_train - f_test))
            fractions = Fractions(f_train, f_test, f_hold)
            seed = int(rng.integers(0, 1000))
            iteration = int(rng.integers(0, 50))
            plan = dual_mc_split(n, fractions, seed, iteration)
            sets = [plan.train, plan.test, plan.holdout]
            assert plan.train.size == int(np.floor(f_train * n + 1e-9))
            assert plan.test.size == int(np.floor(f_test * n + 1e-9))
            assert plan.holdout.size == int(np.floor(f_hold * n + 1e-9))
            union = np.concatenate(sets)
            assert union.size == np.unique(union).size  # pairwise disjoint
            assert union.size == 0 or union.max() < n
            replay = dual_mc_split(n, fractions, seed, iteration)
            np.testing.assert_array_equal(plan.train, replay.train)

    def test_empty_train_rejected(self):
        with pytest.raises(ConfigError):
            dual_mc_split(5, Fractions(0.1, 0.9, 0.0), seed=0, iteration=0)

    def test_fraction_validation(self):
        with pytest.raises(ConfigError):
            Fractions(0.8, 0.3, 0.0)  # sums beyond 1
        with pytest.raises(ConfigError):
            Fractions(0.0, 0.5, 0.0)  # train must be positive


class TestKfold:
    def test_even_folds(self):
        folds = kfold_indices(10, 5, seed=0)
        assert [f.size for f in folds] == [2, 2, 2, 2, 2]

    def test_remainder_distribution(self):
        folds = kfold_indices(7, 3, seed=0)
        assert sorted(f.size for f in folds) == [2, 2, 3]
        assert folds[0].size == 3  # earlier folds absorb the remainder

    def test_union_is_complete_and_disjoint(self):
        folds = kfold_indices(23, 4, seed=9)
        union = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(union, np.arange(23))

    def test_k_out_of_range(self):
        with pytest.raises(ConfigError):
            kfold_indices(5, 1, seed=0)
        with pytest.raises(ConfigError):
            kfold_indices(5, 6, seed=0)


class TestHyperGrid:
    def test_cartesian_order(self):
        grid = HyperGrid("knn", {"k": [1, 2], "metric": ["euclidean", "manhattan"]})
        candidates = grid.candidates()
        assert candidates[0] == {"k": 1, "metric": "euclidean"}
        assert candidates[1] == {"k": 1, "metric": "manhattan"}
        assert len(candidates) == 4

    def test_no_axes_single_default_candidate(self):
        assert HyperGrid("gpr", {}).candidates() == [{}]

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError):
            HyperGrid("knn", {"k": []})


class TestGridSearch:
    def test_single_candidate_chosen(self):
        data = synthetic_matrix(80, 0.05, seed=1)
        result = grid_search("knn", HyperGrid("knn", {"k": [3]}), data, k=4, seed=0)
        assert result.chosen_params == {"k": 3}

    def test_selection_confirmed_by_exhaustive_reevaluation(self):
        data = synthetic_matrix(90, 0.08, seed=2)
        # one nearest neighbor vs most of a fold's training rows
        grid = HyperGrid("knn", {"k": [1, 40]})
        result = grid_search("knn", grid, data, k=3, seed=5)
        # oracle: re-run the same fold evaluation by hand for both candidates
        from dimuq.data import apply_scaler, fit_scaler
        folds = kfold_indices(data.n_rows, 3, seed=5)
        all_rows = np.arange(data.n_rows)
        scores = []
        for candidate in grid.candidates():
            fold_scores = []
            for validation in folds:
                training = np.setdiff1d(all_rows, validation)
                fit_part = data.take(training)
                scaler = fit_scaler(fit_part, "zscore")
                model = KnnRegressor(KnnConfig(**candidate)).fit(
                    apply_scaler(scaler, fit_part))
                predicted = model.predict(
                    apply_scaler(scaler, data.take(validation)).features)
                fold_scores.append(-rmse(predicted.values,
                                         data.take(validation).targets))
            scores.append(np.mean(fold_scores))
        assert result.chosen_index == int(np.argmax(scores))
        np.testing.assert_allclose(result.mean_scores, scores, rtol=1e-12)

    def test_tie_breaks_to_first_candidate(self):
        data = synthetic_matrix(60, 0.05, seed=3)
        grid = HyperGrid("knn", {"k": [4, 4]})  # identical candidates tie exactly
        result = grid_search("knn", grid, data, k=3, seed=1)
        assert result.chosen_index == 0

    def test_failed_candidate_marked_not_fatal(self):
        data = synthetic_matrix(40, 0.05, seed=4)
        grid = HyperGrid("knn", {"k": [3, 4000]})  # second k exceeds fold size
        result = grid_search("knn", grid, data, k=4, seed=0)
        assert result.chosen_params == {"k": 3}
        assert result.mean_scores[1] == -np.inf
        assert result.errors[1] is not None

    def test_one_scaler_fit_per_fold_on_its_training_rows(self):
        data = synthetic_matrix(60, 0.05, seed=6)
        events = []

        def recorder(kind, **info):
            events.append((kind, info))

        grid_search("knn", HyperGrid("knn", {"k": [2, 3, 4]}), data, k=4, seed=0,
                    instrumentation=recorder)
        folds = [info for kind, info in events if kind == "grid_fold"]
        fits = [info for kind, info in events if kind == "grid_scaler_fit"]
        assert len(folds) == len(fits) == 4
        for fold, fit in zip(folds, fits):
            np.testing.assert_array_equal(fit["rows"], fold["train_rows"])

    def test_all_candidates_failed_raises(self):
        data = synthetic_matrix(40, 0.05, seed=5)
        grid = HyperGrid("knn", {"k": [4000]})
        with pytest.raises(SearchError):
            grid_search("knn", grid, data, k=4, seed=0)


class TestRunEvaluation:
    def test_single_iteration_degenerate_stats(self):
        data = synthetic_matrix(120, 0.05, seed=6)
        protocol = Protocol(outer_iterations=1, inner_iterations=1, seed=3)
        report = run_evaluation("knn", HyperGrid("knn", {"k": [4]}), data, protocol)
        assert report.average == report.maximum == report.minimum
        assert report.prediction_range == 0.0
        assert report.stddev == 0.0

    def test_statistics_recomputed_from_rmse_list(self):
        data = synthetic_matrix(150, 0.05, seed=7)
        protocol = Protocol(outer_iterations=2, inner_iterations=3, seed=11)
        report = run_evaluation("knn", HyperGrid("knn", {"k": [3, 6]}), data, protocol)
        values = np.array(report.test_rmses)
        assert report.average == pytest.approx(values.mean(), rel=1e-15)
        assert report.maximum == pytest.approx(values.max(), rel=1e-15)
        assert report.minimum == pytest.approx(values.min(), rel=1e-15)
        assert report.stddev == pytest.approx(values.std(ddof=1), rel=1e-12)
        assert report.prediction_range == pytest.approx(values.max() - values.min(),
                                                        rel=1e-15)
        assert len(values) == 6

    def test_bit_identical_reproducibility(self):
        data = synthetic_matrix(130, 0.05, seed=8)
        protocol = Protocol(outer_iterations=1, inner_iterations=4, seed=21)
        grid = HyperGrid("decision_tree", {"max_depth": [3], "min_samples_leaf": [2]})
        first = run_evaluation("decision_tree", grid, data, protocol)
        second = run_evaluation("decision_tree", grid, data, protocol)
        assert first.test_rmses == second.test_rmses
        assert first.train_rmses == second.train_rmses

    def test_no_leakage_between_scaler_and_test_rows(self):
        data = synthetic_matrix(100, 0.05, seed=9)
        protocol = Protocol(outer_iterations=1, inner_iterations=2, seed=5)
        events = []

        def recorder(kind, **info):
            events.append((kind, info))

        run_evaluation("knn", HyperGrid("knn", {"k": [3]}), data, protocol,
                       instrumentation=recorder)
        scaler_fits = [e for e in events if e[0] == "scaler_fit"]
        assert scaler_fits
        for _, info in scaler_fits:
            iteration = info["iteration"]
            plan = dual_mc_split(100, protocol.fractions, protocol.seed, iteration)
            np.testing.assert_array_equal(np.sort(info["rows"]), np.sort(plan.train))
            assert not np.intersect1d(info["rows"], plan.test).size
        # grid-search folds stay inside the iteration's training rows
        fold_events = [e for e in events if e[0] == "grid_fold"]
        assert fold_events
        for _, info in fold_events:
            assert not np.intersect1d(info["train_rows"], info["validation_rows"]).size

    def test_failed_iterations_excluded_and_counted(self):
        data = synthetic_matrix(60, 0.05, seed=10)
        # k exceeds the grid-search fold size only for some iterations? use a
        # k larger than any training split so every iteration fails
        protocol = Protocol(outer_iterations=1, inner_iterations=2, seed=2)
        with pytest.raises(ProtocolError):
            run_evaluation("knn", HyperGrid("knn", {"k": [59]}), data, protocol)

    def test_workers_do_not_change_results(self):
        data = synthetic_matrix(90, 0.05, seed=11)
        grid = HyperGrid("knn", {"k": [3, 5]})
        serial = run_evaluation("knn", grid, data,
                                Protocol(outer_iterations=1, inner_iterations=4,
                                         seed=13, workers=1))
        parallel = run_evaluation("knn", grid, data,
                                  Protocol(outer_iterations=1, inner_iterations=4,
                                           seed=13, workers=2))
        assert serial.test_rmses == parallel.test_rmses

    def test_ci_preset_shrinks_iterations(self):
        protocol = ci_preset(Protocol())
        assert protocol.outer_iterations == 1
        assert protocol.inner_iterations == 5


class TestFractionSweep:
    def test_single_fraction_single_row(self):
        data = synthetic_matrix(100, 0.05, seed=12)
        protocol = Protocol(outer_iterations=1, inner_iterations=2, seed=1)
        report = fraction_sweep("knn", HyperGrid("knn", {"k": [4]}), data,
                                [0.5], protocol)
        assert len(report.rows) == 1
        assert report.rows[0]["fraction"] == 0.5

    def test_more_training_data_helps(self):
        data = synthetic_matrix(400, 0.05, seed=13)
        protocol = Protocol(outer_iterations=1, inner_iterations=3, seed=2)
        report = fraction_sweep("knn", HyperGrid("knn", {"k": [5]}), data,
                                [0.1, 0.8], protocol)
        low, high = report.rows[0], report.rows[1]
        assert high["mean_test_rmse"] <= low["mean_test_rmse"]

    def test_fractions_must_increase(self):
        data = synthetic_matrix(60, 0.05, seed=14)
        protocol = Protocol(outer_iterations=1, inner_iterations=1, seed=0)
        with pytest.raises(ProtocolError):
            fraction_sweep("knn", HyperGrid("knn", {"k": [3]}), data,
                           [0.8, 0.2], protocol)

    def test_out_of_range_fraction_rejected(self):
        data = synthetic_matrix(60, 0.05, seed=15)
        protocol = Protocol(outer_iterations=1, inner_iterations=1, seed=0)
        with pytest.raises(ProtocolError):
            fraction_sweep("knn", HyperGrid("knn", {"k": [3]}), data,
                           [1.5], protocol)


class TestGridModes:
    def test_per_outer_mode_reuses_tuning_and_labels_deviation(self):
        data = synthetic_matrix(120, 0.05, seed=16)
        grid = HyperGrid("knn", {"k": [3, 7]})
        fast = run_evaluation(
            "knn", grid, data,
            Protocol(outer_iterations=1, inner_iterations=3, seed=4,
                     grid_mode="per_outer"))
        assert "protocol_deviation" in fast.provenance
        assert len(set(map(str, fast.chosen_params))) == 1  # one tuned config reused
        default = run_evaluation(
            "knn", grid, data,
            Protocol(outer_iterations=1, inner_iterations=3, seed=4))
        assert "protocol_deviation" not in default.provenance

    def test_gpr_diagnostics_surface_kernel_and_lml(self):
        data = synthetic_matrix(60, 0.05, seed=17)
        report = run_evaluation(
            "gpr", HyperGrid("gpr", {}), data,
            Protocol(outer_iterations=1, inner_iterations=1, seed=3))
        diag = report.diagnostics[0]
        assert set(diag) == {"amplitude", "length_scale", "noise_level",
                             "log_marginal_likelihood"}


class TestTrendDefaults:
    def test_default_fraction_list(self):
        from dimuq.harness.evaluation import DEFAULT_TREND_FRACTIONS
        assert DEFAULT_TREND_FRACTIONS == (0.1, 0.5, 0.8, 0.9, 0.99)


class TestFamilyRegistry:
    @pytest.mark.parametrize("family,params", [
        ("knn", {"k": 3, "metric": "manhattan"}),
        ("decision_tree", {"max_depth": 4, "min_samples_leaf": 2,
                           "criterion": "absolute_error"}),
        ("random_forest", {"n_estimators": 3, "max_features": 2,
                           "min_samples_leaf": 1, "bootstrap": True}),
        ("gbt", {"learning_rate": 0.2, "n_estimators": 5, "max_leaf_nodes": 4}),
        ("gbt", {"learning_rate": 0.2, "n_estimators": 5, "max_depth": 2,
                 "subsample": 0.8}),
        ("svr", {"epsilon": 0.05, "c": 1.5}),
        ("mlp", {"hidden_sizes": [6, 3], "activation": "relu",
                 "optimizer": "adam", "learning_rate": 0.02, "max_iter": 50}),
        ("gpr", {"length_scale": 1.0, "noise_level": 1.0, "n_restarts": 0}),
        ("bnn_head", {"hidden_sizes": [6, 4], "epochs": 10}),
        ("bnn_ensemble", {"n_units": 4, "epochs": 10, "n_draws": 5}),
    ])
    def test_json_style_params_build_and_fit(self, family, params):
        from dimuq.harness import build_model
        data = synthetic_matrix(40, 0.05, seed=20)
        model = build_model(family, params, seed=1)
        model.fit(data)
        values = model.predict(data.features[:4]).values
        assert values.shape == (4,)
        assert np.all(np.isfinite(values))

    def test_unknown_family_rejected(self):
        from dimuq.harness import build_model
        with pytest.raises(ConfigError):
            build_model("linear_regression", {}, seed=0)

    def test_unknown_parameter_rejected(self):
        from dimuq.harness import build_model
        with pytest.raises(ConfigError):
            build_model("knn", {"neighbors": 3}, seed=0)
