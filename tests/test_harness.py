import numpy as np
import pytest

from dimuq import synthetic_matrix
from dimuq.errors import (ConfigError, NumericError, ProtocolError, SearchError,
                          numeric_cause)
from dimuq.harness import (
    FAMILY_NAMES,
    Fractions,
    HyperGrid,
    Protocol,
    ci_preset,
    dual_mc_split,
    fraction_sweep,
    grid_search,
    kfold_indices,
    read_config,
    run_evaluation,
    scale_split,
    split_rows,
)
from dimuq.harness import build_model, evaluation, families, search
from dimuq.metrics import rmse
from dimuq.models import (
    ForestConfig,
    KnnConfig,
    MlpConfig,
    SvrConfig,
    TreeConfig,
)

from helpers import (matrix_from_arrays, no_iterations, record_scaling, row_ids,
                     scaled_splits)


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

    @pytest.mark.parametrize("family, axes", [
        # metric first, so each metric's k path is interleaved with nothing;
        # k=1 twice, so the path holds a duplicate and ties go to the first
        ("knn", {"metric": ["euclidean", "manhattan"], "k": [1, 40, 6, 1]}),
        ("decision_tree", {"max_depth": [4, None, 8], "min_samples_leaf": [5, 1]}),
        ("decision_tree", {"max_depth": [4, 8, 12], "min_samples_leaf": [1, 5]}),
    ], ids=["knn", "decision_tree", "sweep_tree"])
    def test_selection_confirmed_by_exhaustive_reevaluation(self, family, axes):
        data = synthetic_matrix(90, 0.08, seed=2)
        grid = HyperGrid(family, axes)
        result = grid_search(family, grid, data, k=3, seed=5)
        # oracle: fit every candidate on every fold by hand, one at a time
        from dimuq.data import apply_scaler, fit_scaler
        folds = kfold_indices(data.n_rows, 3, seed=5)
        all_rows = np.arange(data.n_rows)
        fold_scores = []
        for candidate in grid.candidates():
            scores = []
            for validation in folds:
                fit_part = data.take(np.setdiff1d(all_rows, validation))
                scaler = fit_scaler(fit_part, "zscore")
                model = build_model(family, candidate, seed=5)
                model.fit(apply_scaler(scaler, fit_part))
                held_out = apply_scaler(scaler, data.take(validation))
                predicted = model.predict(held_out.features)
                scores.append(-rmse(predicted.values, held_out.targets))
            fold_scores.append(tuple(scores))
        mean_scores = [float(np.mean(scores)) for scores in fold_scores]
        assert result.fold_scores == tuple(fold_scores)
        assert result.mean_scores == tuple(mean_scores)
        assert result.chosen_index == int(np.argmax(mean_scores))
        assert result.errors == (None,) * len(fold_scores)

    def test_tie_breaks_to_first_candidate(self):
        data = synthetic_matrix(60, 0.05, seed=3)
        grid = HyperGrid("knn", {"k": [4, 4]})  # identical candidates tie exactly
        result = grid_search("knn", grid, data, k=3, seed=1)
        assert result.chosen_index == 0

    def test_failed_candidate_marked_not_fatal(self):
        data = synthetic_matrix(40, 0.05, seed=4)
        alone = {k: grid_search("knn", HyperGrid("knn", {"k": [k]}), data, k=4, seed=0)
                 for k in (3, 5)}
        # k=4000 exceeds the 30 rows of every fold: at the path's end, then
        # mid-path with a scored neighbour on each side
        for ks in ([3, 4000], [3, 4000, 5]):
            result = grid_search("knn", HyperGrid("knn", {"k": ks}), data, k=4, seed=0)
            assert result.mean_scores[1] == -np.inf
            assert result.fold_scores[1] == ()
            assert result.errors[1] == "ConfigError: k=4000 exceeds 30 training rows"
            for index, k in enumerate(ks):
                if k != 4000:
                    assert result.errors[index] is None
                    assert result.mean_scores[index] == alone[k].mean_scores[0]
                    assert result.fold_scores[index] == alone[k].fold_scores[0]
            best = max((k for k in ks if k != 4000), key=lambda k: alone[k].mean_scores[0])
            assert result.chosen_params == {"k": best}

    def test_overflowing_fold_score_fails_the_candidate(self):
        # finite predictions whose squared errors overflow to inf
        data = synthetic_matrix(40, 0.05, seed=4)
        huge = matrix_from_arrays(data.features, data.targets * 1e300)
        with np.errstate(over="ignore"), pytest.raises(SearchError) as raised:
            grid_search("knn", HyperGrid("knn", {"k": [3, 5]}), huge, k=4, seed=0)
        assert str(raised.value) == ("every candidate failed; first error: "
                                     "NumericError: the fold's validation RMSE overflowed")
        assert isinstance(raised.value.__cause__, NumericError)

    def test_one_scaler_fit_per_fold_on_its_training_rows(self, monkeypatch):
        data = synthetic_matrix(60, 0.05, seed=6)
        calls = record_scaling(monkeypatch)
        grid_search("knn", HyperGrid("knn", {"k": [2, 3, 4]}), data, k=4, seed=0)
        folds = kfold_indices(60, 4, seed=0)
        fits = scaled_splits(calls)
        assert len(folds) == len(fits) == 4
        for validation, (train, test) in zip(folds, fits):
            np.testing.assert_array_equal(row_ids(train, data),
                                          np.setdiff1d(np.arange(60), validation))
            np.testing.assert_array_equal(row_ids(test, data), validation)

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

    def test_no_leakage_between_scaler_and_test_rows(self, monkeypatch):
        data = synthetic_matrix(100, 0.05, seed=9)
        protocol = Protocol(outer_iterations=1, inner_iterations=2, seed=5)
        calls = record_scaling(monkeypatch)
        run_evaluation("knn", HyperGrid("knn", {"k": [3, 4]}), data, protocol)
        # each iteration scales its k grid-search folds, then its own split
        fits = scaled_splits(calls)
        per_iteration = protocol.k + 1
        assert len(fits) == 2 * per_iteration
        for iteration in range(2):
            plan = dual_mc_split(100, protocol.fractions, protocol.seed, iteration)
            *folds, (train, test) = fits[iteration * per_iteration:
                                         (iteration + 1) * per_iteration]
            np.testing.assert_array_equal(row_ids(train, data), plan.train)
            np.testing.assert_array_equal(row_ids(test, data), plan.test)
            # grid-search folds stay inside the iteration's training rows
            for fold_train, validation in folds:
                fold_rows, validation_rows = row_ids(fold_train, data), row_ids(validation, data)
                assert not np.intersect1d(fold_rows, validation_rows).size
                assert np.isin(fold_rows, plan.train).all()
                assert np.isin(validation_rows, plan.train).all()

    @pytest.mark.parametrize("grid_mode", ["per_inner", "per_outer"])
    def test_one_candidate_scales_only_the_iterations_own_split(self, monkeypatch,
                                                                 grid_mode):
        data = synthetic_matrix(100, 0.05, seed=9)
        protocol = Protocol(outer_iterations=1, inner_iterations=2, seed=5,
                            grid_mode=grid_mode)
        calls = record_scaling(monkeypatch)
        run_evaluation("knn", HyperGrid("knn", {"k": [3]}), data, protocol)
        fits = scaled_splits(calls)
        assert len(fits) == 2
        for iteration, (train, test) in enumerate(fits):
            plan = dual_mc_split(100, protocol.fractions, protocol.seed, iteration)
            np.testing.assert_array_equal(row_ids(train, data), plan.train)
            np.testing.assert_array_equal(row_ids(test, data), plan.test)

    def test_one_candidate_fits_once_per_iteration_and_a_bad_one_never(self, monkeypatch):
        fits = []

        def counting(build):
            def counted_build(family, params, seed=0):
                model = build(family, params, seed=seed)
                fit = model.fit

                def counted_fit(matrix):
                    fits.append((family, matrix.n_rows))
                    return fit(matrix)

                model.fit = counted_fit
                return model
            return counted_build

        for module in (evaluation, search):
            monkeypatch.setattr(module, "build_model", counting(module.build_model))
        data = synthetic_matrix(100, 0.05, seed=9)
        protocol = Protocol(outer_iterations=2, inner_iterations=2, seed=5)
        run_evaluation("decision_tree", HyperGrid("decision_tree", {"max_depth": [3]}),
                       data, protocol)
        assert fits == [("decision_tree", 80)] * 4  # no fold fit
        del fits[:]
        with pytest.raises(ConfigError):
            run_evaluation("knn", HyperGrid("knn", {"k": ["3"]}), data, protocol)
        assert fits == []

    def test_one_candidate_matches_a_hand_rolled_loop(self):
        data = synthetic_matrix(100, 0.05, seed=9)
        protocol = Protocol(outer_iterations=2, inner_iterations=2, seed=5)
        params = {"n_estimators": 3, "max_features": 4}
        report = run_evaluation(
            "random_forest", HyperGrid("random_forest", {k: [v] for k, v in params.items()}),
            data, protocol)
        test_rmses, train_rmses = [], []
        for iteration in range(4):
            train, test = split_rows(data, protocol.fractions, protocol.seed, iteration)
            train, test = scale_split(train, test, protocol.scaler_method)
            seed = int(np.random.SeedSequence([protocol.seed, iteration]).generate_state(1)[0])
            model = build_model("random_forest", params, seed=seed).fit(train)
            test_rmses.append(rmse(model.predict(test.features).values, test.targets))
            train_rmses.append(rmse(model.predict(train.features).values, train.targets))
        assert [x.hex() for x in report.test_rmses] == [x.hex() for x in test_rmses]
        assert [x.hex() for x in report.train_rmses] == [x.hex() for x in train_rmses]
        assert report.chosen_params == (params,) * 4

    @pytest.mark.parametrize("workers", [1, 2])
    def test_overflowing_iteration_rmse_fails_as_numeric(self, workers):
        # finite predictions whose squared errors overflow to inf
        data = synthetic_matrix(40, 0.05, seed=4)
        huge = matrix_from_arrays(data.features, data.targets * 1e300)
        protocol = Protocol(outer_iterations=1, inner_iterations=2, k=4, seed=0,
                            workers=workers)
        with np.errstate(over="ignore"), pytest.raises(ProtocolError) as raised:
            run_evaluation("knn", HyperGrid("knn", {"k": [3]}), huge, protocol)
        assert str(raised.value) == ("every iteration failed; first error: "
                                     "NumericError: the iteration's RMSE overflowed")
        assert isinstance(numeric_cause(raised.value), NumericError)

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

    def test_fractions_must_increase(self, monkeypatch):
        no_iterations(monkeypatch)
        data = synthetic_matrix(60, 0.05, seed=14)
        for workers in (1, 2):
            protocol = Protocol(outer_iterations=1, inner_iterations=1, seed=0,
                                workers=workers)
            for fractions in ([0.8, 0.2], [0.8, 0.5, 0.3], [0.5, 0.5]):
                with pytest.raises(ProtocolError):
                    fraction_sweep("knn", HyperGrid("knn", {"k": [3]}), data,
                                   fractions, protocol)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_fraction_is_planned_before_any_iteration_runs(self, monkeypatch,
                                                                 workers):
        # a per_outer search runs at plan time: the last fraction's fails
        # before the first fraction's iterations start
        real_search = evaluation.grid_search

        def fails_above_30_rows(family, grid, train, *args, **kwargs):
            if train.n_rows > 30:
                raise SearchError("every candidate failed")
            return real_search(family, grid, train, *args, **kwargs)

        monkeypatch.setattr(evaluation, "grid_search", fails_above_30_rows)
        no_iterations(monkeypatch)
        data = synthetic_matrix(60, 0.05, seed=14)
        protocol = Protocol(outer_iterations=1, inner_iterations=2, k=3, seed=0,
                            grid_mode="per_outer", workers=workers)
        with pytest.raises(SearchError):
            fraction_sweep("knn", HyperGrid("knn", {"k": [3, 5]}), data, [0.3, 0.6],
                           protocol)

    def test_batched_sweep_matches_one_protocol_run_per_fraction(self):
        data = synthetic_matrix(80, 0.05, seed=16)
        grid = HyperGrid("knn", {"k": [3, 5]})
        protocol = Protocol(outer_iterations=1, inner_iterations=3, k=3, seed=4)
        report = fraction_sweep("knn", grid, data, [0.3, 0.6], protocol)
        for fraction, swept in zip((0.3, 0.6), report.reports):
            alone = fraction_sweep("knn", grid, data, [fraction], protocol).reports[0]
            assert [x.hex() for x in swept.test_rmses] == [x.hex() for x in alone.test_rmses]
            assert swept.chosen_params == alone.chosen_params
            assert swept.provenance == alone.provenance

    def test_one_candidate_needs_only_the_training_side_to_fit(self):
        # k=30 fits the 30 training rows at 0.5, though no 20-row CV fold
        data = synthetic_matrix(60, 0.05, seed=5)
        protocol = Protocol(outer_iterations=1, inner_iterations=2, k=3, seed=7)
        report = fraction_sweep("knn", HyperGrid("knn", {"k": [30]}), data, [0.5], protocol)
        assert report.rows[0]["n_iterations"] == 2
        assert report.rows[0]["n_failures"] == 0

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

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_every_model_keeps_its_registry_config(self, family):
        config_type = families._FAMILIES[family][0]
        assert type(build_model(family, {}).config) is config_type

    def test_unknown_family_rejected(self):
        from dimuq.harness import build_model
        with pytest.raises(ConfigError):
            build_model("linear_regression", {}, seed=0)

    def test_unknown_parameter_rejected(self):
        from dimuq.harness import build_model
        with pytest.raises(ConfigError):
            build_model("knn", {"neighbors": 3}, seed=0)

    @pytest.mark.parametrize("family,params", [
        ("knn", {"k": "6"}),
        ("gpr", {"amplitude": "x"}),
        ("bnn_ensemble", {"n_draws": "many"}),
    ])
    def test_wrong_typed_value_raises_config_error(self, family, params):
        from dimuq.harness import build_model
        with pytest.raises(ConfigError) as info:
            build_model(family, params, seed=0)
        assert isinstance(info.value.__cause__, (TypeError, ValueError))

    def test_zero_epochs_fails_only_its_candidate(self):
        data = synthetic_matrix(40, 0.05, seed=20)
        grid = HyperGrid("bnn_ensemble", {"epochs": [0, 1], "n_draws": [2]})
        result = grid_search("bnn_ensemble", grid, data, k=2, seed=0)
        assert result.errors == ("ConfigError: epochs must be >= 1", None)
        assert result.mean_scores[0] == -np.inf
        assert result.chosen_index == 1

    def test_ensemble_needs_two_draws(self):
        from dimuq.harness import build_model
        with pytest.raises(ConfigError):
            build_model("bnn_ensemble", {"n_draws": 1}, seed=0)

    @pytest.mark.parametrize("family, params, message", [
        ("bnn_head", {"learning_rate": 0}, "learning_rate must be > 0"),
        ("bnn_ensemble", {"learning_rate": -0.001}, "learning_rate must be > 0"),
        ("mlp", {"optimizer": "adam", "learning_rate": 0.0}, "learning_rate must be > 0"),
        ("bnn_head", {"kl_weight": -0.1}, "kl_weight must be >= 0"),
        ("bnn_ensemble", {"kl_weight": -1e-9}, "kl_weight must be >= 0"),
        ("gpr", {"n_restarts": -3}, "n_restarts must be >= 0"),
    ])
    def test_degenerate_training_setting_raises_config_error(self, family, params, message):
        from dimuq.harness import build_model
        with pytest.raises(ConfigError, match=message):
            build_model(family, params, seed=0)

    @pytest.mark.parametrize("family", ["bnn_head", "bnn_ensemble"])
    def test_zero_kl_weight_is_valid(self, family):
        from dimuq.harness import build_model
        assert build_model(family, {"kl_weight": 0}, seed=0).config.kl_weight == 0


class TestReadConfig:
    @pytest.mark.parametrize("cls, doc, field, value", [
        (KnnConfig, {"k": 3}, "k", 3),
        (SvrConfig, {"c": 2}, "c", 2),                         # a float field takes an int
        (SvrConfig, {"gamma": 0.5}, "gamma", 0.5),             # float | str
        (TreeConfig, {"max_depth": None}, "max_depth", None),  # int | None
        (MlpConfig, {"hidden_sizes": [6, 3]}, "hidden_sizes", (6, 3)),
        (MlpConfig, {}, "seed", 9),                            # the given seed fills it
        (MlpConfig, {"seed": 2}, "seed", 2),                   # unless the block sets it
    ])
    def test_accepts_values_of_the_annotated_type(self, cls, doc, field, value):
        assert getattr(read_config(cls, doc, "block", seed=9), field) == value

    @pytest.mark.parametrize("cls, doc", [
        (KnnConfig, {"k": 6.0}),
        (KnnConfig, {"k": True}),
        (KnnConfig, {"k": "6"}),
        (SvrConfig, {"c": False}),
        (MlpConfig, {"hidden_sizes": [6, 3.0]}),
        (MlpConfig, {"hidden_sizes": 6}),
        (ForestConfig, {"bootstrap": 1}),
        (Protocol, {"fractions": [0.8, 0.2]}),
        (Protocol, {"k": 1}),
        (KnnConfig, [3]),
        (KnnConfig, {"neighbours": 3}),
    ])
    def test_rejects_the_rest_with_a_config_exit(self, cls, doc):
        with pytest.raises((ConfigError, ProtocolError)):
            read_config(cls, doc, "block")
