import hashlib

import numpy as np
import pytest

from dimuq.data import (
    DesignMatrix,
    RecordTable,
    apply_scaler,
    encode,
    fit_scaler,
    generate_synthetic,
    load_csv,
    synthetic_ground_truth,
)
from dimuq.errors import ConfigError, LayoutMismatchError, LevelError, ParseError, SchemaError
from dimuq.schema import ColumnSpec, DataSchema, default_schema

from helpers import write_csv


def tiny_schema():
    return DataSchema(
        columns=(
            ColumnSpec("size", "continuous", "manufacturing_parameter"),
            ColumnSpec("grade", "categorical", "feature_descriptor", ("A", "B")),
            ColumnSpec("dev", "continuous", "target"),
        ),
        selected_inputs=("size", "grade"),
    )


class TestLoadCsv:
    def test_two_row_parse(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("size,grade,dev\n1.0,A,0.1\n2.0,B,-0.2\n")
        table = load_csv(path, tiny_schema())
        assert len(table) == 2
        assert table.rows[0]["grade"] == "A"
        assert table.rows[1]["size"] == 2.0

    def test_row_order_preserved(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("size,grade,dev\n3.0,A,0.3\n1.0,B,0.1\n2.0,A,0.2\n")
        table = load_csv(path, tiny_schema())
        assert [row["size"] for row in table.rows] == [3.0, 1.0, 2.0]

    def test_missing_column_names_it(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("size,grade\n1.0,A\n")
        with pytest.raises(SchemaError, match="dev"):
            load_csv(path, tiny_schema())

    def test_unparseable_cell_is_located(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("size,grade,dev\n1.0,A,0.1\noops,B,0.2\n")
        with pytest.raises(ParseError, match=r"row 1.*size"):
            load_csv(path, tiny_schema())

    def test_unknown_level_rejected_when_closed(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("size,grade,dev\n1.0,C,0.1\n")
        with pytest.raises(LevelError):
            load_csv(path, tiny_schema())

    def test_open_levels_are_appended(self, tmp_path):
        schema = DataSchema(
            columns=(
                ColumnSpec("grade", "categorical", "feature_descriptor",
                           ("A", "B"), open_levels=True),
                ColumnSpec("dev", "continuous", "target"),
            ),
            selected_inputs=("grade",),
        )
        path = tmp_path / "d.csv"
        path.write_text("grade,dev\nC,0.1\nA,0.2\n")
        table = load_csv(path, schema)
        assert table.schema.column("grade").levels == ("A", "B", "C")

    def test_empty_cell_is_an_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("size,grade,dev\n,A,0.1\n")
        with pytest.raises(ParseError):
            load_csv(path, tiny_schema())

    def test_round_trip_through_write_csv(self, tmp_path):
        table = generate_synthetic(20, 0.05, seed=1)
        path = tmp_path / "syn.csv"
        write_csv(table, path)
        reread = load_csv(path, default_schema())
        assert len(reread) == 20
        np.testing.assert_allclose(reread.targets(), table.targets(), rtol=1e-10)


class TestEncode:
    def test_single_categorical_indicator(self, tmp_path):
        schema = DataSchema(
            columns=(
                ColumnSpec("grade", "categorical", "feature_descriptor", ("A", "B")),
                ColumnSpec("dev", "continuous", "target"),
            ),
            selected_inputs=("grade",),
        )
        table = RecordTable(schema=schema, rows=({"grade": "A", "dev": 0.1},))
        matrix = encode(table)
        np.testing.assert_array_equal(matrix.features, [[1.0, 0.0]])
        assert matrix.column_labels == ("grade=A", "grade=B")

    def test_default_schema_width_sixteen(self):
        matrix = encode(generate_synthetic(25, 0.0, seed=2))
        assert matrix.width == 16

    def test_mixed_width_and_block_sums(self):
        schema = DataSchema(
            columns=(
                ColumnSpec("u", "continuous", "manufacturing_parameter"),
                ColumnSpec("v", "continuous", "manufacturing_parameter"),
                ColumnSpec("c", "categorical", "feature_descriptor", ("p", "q", "r")),
                ColumnSpec("dev", "continuous", "target"),
            ),
            selected_inputs=("u", "v", "c"),
        )
        rng = np.random.default_rng(3)
        rows = tuple(
            {"u": float(rng.normal()), "v": float(rng.normal()),
             "c": str(rng.choice(["p", "q", "r"])), "dev": 0.0}
            for _ in range(40)
        )
        matrix = encode(RecordTable(schema=schema, rows=rows))
        assert matrix.width == 5
        # brute force: every row's categorical block sums to exactly 1
        block = matrix.features[:, 2:5]
        for row in block:
            assert row.sum() == 1.0
            assert set(row) <= {0.0, 1.0}

    def test_indicator_blocks_sum_to_one_on_default_schema(self):
        matrix = encode(generate_synthetic(60, 0.05, seed=4))
        offset = 0
        for col in default_schema().selected_columns:
            if col.is_categorical:
                width = len(col.levels)
                sums = matrix.features[:, offset:offset + width].sum(axis=1)
                np.testing.assert_array_equal(sums, np.ones(60))
                offset += width
            else:
                offset += 1

    def test_encode_commutes_with_row_permutation(self):
        table = generate_synthetic(30, 0.05, seed=5)
        perm = np.random.default_rng(0).permutation(30)
        shuffled = RecordTable(schema=table.schema,
                               rows=tuple(table.rows[i] for i in perm))
        direct = encode(shuffled)
        reordered = encode(table)
        np.testing.assert_array_equal(direct.features, reordered.features[perm])
        np.testing.assert_array_equal(direct.targets, reordered.targets[perm])


class TestScalers:
    def test_zscore_hand_example(self):
        matrix = DesignMatrix(np.array([[1.0], [2.0], [3.0]]), np.zeros(3), ("x",))
        state = fit_scaler(matrix, "zscore")
        scaled = apply_scaler(state, matrix)
        np.testing.assert_allclose(scaled.features.ravel(),
                                   [-1.224744871391589, 0.0, 1.224744871391589])

    def test_zscore_normalizes_fitted_rows(self):
        rng = np.random.default_rng(6)
        matrix = DesignMatrix(rng.normal(3.0, 2.5, size=(50, 2)), np.zeros(50), ("x", "y"))
        scaled = apply_scaler(fit_scaler(matrix, "zscore"), matrix)
        np.testing.assert_allclose(scaled.features.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(scaled.features.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_flagged_and_zeroed(self):
        matrix = DesignMatrix(np.array([[5.0], [5.0], [5.0]]), np.zeros(3), ("x",))
        state = fit_scaler(matrix, "zscore")
        assert state.flagged_constant == ("x",)
        np.testing.assert_array_equal(apply_scaler(state, matrix).features, 0.0)

    def test_minmax_definition(self):
        matrix = DesignMatrix(np.array([[0.0], [5.0], [10.0]]), np.zeros(3), ("x",))
        scaled = apply_scaler(fit_scaler(matrix, "minmax"), matrix)
        np.testing.assert_allclose(scaled.features.ravel(), [0.0, 0.5, 1.0])

    def test_indicator_columns_pass_through(self):
        features = np.array([[1.0, 0.0, 3.0], [0.0, 1.0, 9.0]])
        matrix = DesignMatrix(features, np.zeros(2), ("c=A", "c=B", "x"))
        scaled = apply_scaler(fit_scaler(matrix, "zscore"), matrix)
        np.testing.assert_array_equal(scaled.features[:, :2], features[:, :2])

    def test_targets_never_scaled(self):
        matrix = DesignMatrix(np.array([[1.0], [2.0]]), np.array([0.5, -0.5]), ("x",))
        scaled = apply_scaler(fit_scaler(matrix, "zscore"), matrix)
        np.testing.assert_array_equal(scaled.targets, matrix.targets)

    @pytest.mark.parametrize("method", ["zscore", "minmax"])
    def test_every_column_is_shifted_and_scaled(self, method):
        rng = np.random.default_rng(7)
        features = np.column_stack([rng.uniform(10, 20, 30), rng.normal(0, 4, 30)])
        matrix = DesignMatrix(features, np.zeros(30), ("x", "y"))
        if method == "zscore":
            center, spread = features.mean(axis=0), features.std(axis=0)
        else:
            center, spread = features.min(axis=0), features.max(axis=0) - features.min(axis=0)
        scaled = apply_scaler(fit_scaler(matrix, method), matrix)
        np.testing.assert_allclose(scaled.features, (features - center) / spread,
                                   rtol=1e-12, atol=1e-14)

    def test_layout_mismatch_rejected(self):
        first = DesignMatrix(np.array([[1.0]]), np.zeros(1), ("x",))
        other = DesignMatrix(np.array([[1.0, 2.0]]), np.zeros(1), ("x", "y"))
        state = fit_scaler(first, "zscore")
        with pytest.raises(LayoutMismatchError):
            apply_scaler(state, other)


class TestSynthetic:
    def test_deterministic_given_seed(self):
        first = generate_synthetic(10, 0.05, seed=7)
        second = generate_synthetic(10, 0.05, seed=7)
        assert first.rows == second.rows

    def test_default_fixture_is_pinned(self):
        # the CLI's default data set: every reported figure depends on its stream
        rows = generate_synthetic(800, 0.05, seed=7).rows
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "7eda9a0990ee42b1d08de5cc06c9e11adcc34f7524d9735f6c0a796c6447669a")

    def test_zero_noise_matches_ground_truth(self):
        table = generate_synthetic(15, 0.0, seed=8)
        for row in table.rows:
            assert row["dft"] == synthetic_ground_truth(row)

    def test_noise_scale_recovered_at_large_n(self):
        table = generate_synthetic(5000, 0.05, seed=9)
        residuals = np.array(
            [row["dft"] - synthetic_ground_truth(row) for row in table.rows]
        )
        assert 0.045 <= residuals.std() <= 0.055

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            generate_synthetic(0, 0.05, seed=1)
        with pytest.raises(ConfigError):
            generate_synthetic(5, -0.1, seed=1)


class TestNoneScaler:
    def test_none_method_is_identity(self):
        rng = np.random.default_rng(20)
        matrix = DesignMatrix(rng.normal(5, 3, size=(10, 2)), np.zeros(10), ("x", "y"))
        scaled = apply_scaler(fit_scaler(matrix, "none"), matrix)
        np.testing.assert_array_equal(scaled.features, matrix.features)
