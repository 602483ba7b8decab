import json
import warnings

import numpy as np
import pytest

from dimuq import synthetic_matrix
from dimuq.errors import ConfigError, NumericError
from dimuq.harness import FAMILY_NAMES, build_model
from dimuq.metrics import (
    PARITY_HEADER,
    ParityTable,
    Prediction,
    PredictiveDistribution,
    csv_text,
    json_text,
    rmse,
)


class TestRmse:
    def test_identity_is_zero(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_hand_value(self):
        assert rmse([0.0, 0.0], [0.03, 0.04]) == pytest.approx(0.035355339059327376, abs=1e-15)

    def test_symmetry_and_shift_invariance(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=20), rng.normal(size=20)
        assert rmse(a, b) == rmse(b, a)
        assert rmse(a + 0.7, b + 0.7) == pytest.approx(rmse(a, b), rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=15), rng.normal(size=15)
        perm = rng.permutation(15)
        assert rmse(a[perm], b[perm]) == pytest.approx(rmse(a, b), rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            rmse([1.0], [1.0, 2.0])

    def test_empty_input(self):
        with pytest.raises(ConfigError):
            rmse([], [])


class TestPredictionTypes:
    def test_prediction_rejects_nan(self):
        with pytest.raises(NumericError):
            Prediction(np.array([1.0, np.nan]))

    def test_distribution_rejects_negative_stddev(self):
        with pytest.raises(ConfigError):
            PredictiveDistribution(np.zeros(2), np.array([0.1, -0.1]))

    def test_distribution_rejects_length_mismatch(self):
        with pytest.raises(ConfigError):
            PredictiveDistribution(np.zeros(2), np.zeros(3))


class TestParityTable:
    def test_three_aligned_points(self):
        table = ParityTable([0.1, 0.2, 0.3], [0.11, 0.19, 0.31])
        assert len(table) == 3

    def test_uncertainty_column_population(self):
        table = ParityTable([0.1], [0.2], aleatoric=[0.05])
        csv = table.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == PARITY_HEADER
        assert lines[1] == "0.1,0.2,0.05,"

    def test_both_uncertainty_columns(self):
        csv = ParityTable([0.0], [0.0], aleatoric=[0.1], epistemic=[0.02]).to_csv()
        assert csv.strip().split("\n")[1] == "0,0,0.1,0.02"

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigError):
            ParityTable([0.1, 0.2], [0.1])
        with pytest.raises(ConfigError):
            ParityTable([0.1], [0.1], aleatoric=[0.1, 0.2])


class TestCsvText:
    def test_float_int_str_and_none_cells(self):
        rows = [(1 / 3, 7, "knn", None),
                (np.float64(2.0), np.int64(3), "a b", None),
                (12345678901.5, -1, "", 1e-12)]
        assert csv_text(("f", "i", "s", "n"), rows) == (
            "f,i,s,n\n"
            "0.3333333333,7,knn,\n"
            "2,3,a b,\n"
            "1.23456789e+10,-1,,1e-12\n")

    def test_no_rows_is_the_header_line(self):
        assert csv_text(["a", "b"], []) == "a,b\n"


class TestJsonText:
    def test_sorted_keys_two_space_indent_and_one_newline(self):
        text = json_text({"b": [1, 2.5], "a": {"d": None, "c": "x"}})
        assert text == ('{\n  "a": {\n    "c": "x",\n    "d": null\n  },\n'
                        '  "b": [\n    1,\n    2.5\n  ]\n}\n')
        assert json.loads(text) == {"a": {"c": "x", "d": None}, "b": [1, 2.5]}


# settings small enough that every family fits in well under a second
_TINY = {"random_forest": {"n_estimators": 3}, "gbt": {"n_estimators": 3},
         "mlp": {"max_iter": 20}, "bnn_head": {"epochs": 3},
         "bnn_ensemble": {"epochs": 3, "n_draws": 2}}


def _query_methods(model):
    """Every way ``model`` answers queries, each as a one-argument call."""
    methods = [model.predict]
    if hasattr(model, "predict_dist"):
        methods += [model.predict_dist, model.predict_spread]
    if hasattr(model, "predict_path"):
        axis = "k" if hasattr(model.config, "k") else "max_depth"
        methods.append(lambda features: model.predict_path(
            features, [getattr(model.config, axis)]))
    return methods


class TestRegressorContract:
    """Every family reads its queries through ``Regressor.queries``."""

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_queries_must_follow_a_fit_of_their_width(self, family):
        data = synthetic_matrix(120, 0.05, 7)
        model = build_model(family, _TINY.get(family, {}), seed=0)
        for method in _query_methods(model):
            with pytest.raises(ConfigError, match="predict before fit"):
                method(data.features)
        model.fit(data)
        for method in _query_methods(model):
            method(data.features[:3])
            for width in (1, data.width + 1):
                with pytest.raises(ConfigError, match="do not match"):
                    method(np.zeros((3, width)))

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_empty_training_data_is_a_config_error_before_any_work(self, family):
        empty = synthetic_matrix(20, 0.05, 7).take(np.arange(0))
        model = build_model(family, _TINY.get(family, {}), seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning from work on no rows
            with pytest.raises(ConfigError):
                model.fit(empty)
        assert model.width is None
