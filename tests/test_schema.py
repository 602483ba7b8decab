import pytest

from dimuq.errors import SchemaError
from dimuq.schema import (
    ColumnSpec,
    DataSchema,
    default_schema,
    schema_from_dict,
)


class TestColumnSpec:
    def test_categorical_needs_two_levels(self):
        with pytest.raises(SchemaError):
            ColumnSpec("m", "categorical", "manufacturing_parameter", ("only",))

    def test_continuous_rejects_levels(self):
        with pytest.raises(SchemaError):
            ColumnSpec("x", "continuous", "manufacturing_parameter", ("a", "b"))

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            ColumnSpec("x", "ordinal", "manufacturing_parameter")


class TestDataSchema:
    def test_exactly_one_target(self):
        cols = (
            ColumnSpec("a", "continuous", "manufacturing_parameter"),
            ColumnSpec("t1", "continuous", "target"),
            ColumnSpec("t2", "continuous", "target"),
        )
        with pytest.raises(SchemaError):
            DataSchema(columns=cols, selected_inputs=("a",))

    def test_selected_inputs_exclude_target(self):
        cols = (
            ColumnSpec("a", "continuous", "manufacturing_parameter"),
            ColumnSpec("t", "continuous", "target"),
        )
        with pytest.raises(SchemaError):
            DataSchema(columns=cols, selected_inputs=("t",))

    def test_selected_inputs_must_exist(self):
        cols = (
            ColumnSpec("a", "continuous", "manufacturing_parameter"),
            ColumnSpec("t", "continuous", "target"),
        )
        with pytest.raises(SchemaError):
            DataSchema(columns=cols, selected_inputs=("missing",))


class TestDefaultSchema:
    def test_eight_selected_inputs(self):
        assert len(default_schema().selected_inputs) == 8

    def test_encoded_width_is_sixteen(self):
        assert default_schema().encoded_width() == 16

    def test_width_matches_level_arithmetic(self):
        schema = default_schema()
        width = 0
        for col in schema.selected_columns:
            width += len(col.levels) if col.is_categorical else 1
        assert width == schema.encoded_width()

    def test_labels_cover_every_level(self):
        schema = default_schema()
        labels = schema.encoded_labels()
        assert len(labels) == 16
        assert "material=UMA" in labels
        assert "x_coordinate" in labels

    def test_from_dict_reads_a_literal_document(self):
        doc = {
            "columns": [
                {"name": "material", "kind": "categorical",
                 "role": "manufacturing_parameter", "levels": ["UMA", "RPU"]},
                {"name": "feature_id", "kind": "categorical", "role": "feature_descriptor",
                 "levels": ["f0", "f1"], "open_levels": True},
                {"name": "x_coordinate", "kind": "continuous",
                 "role": "manufacturing_parameter"},
                {"name": "dft", "kind": "continuous", "role": "target"},
            ],
            "selected_inputs": ["x_coordinate", "material"],
        }
        assert schema_from_dict(doc) == DataSchema(
            columns=(
                ColumnSpec("material", "categorical", "manufacturing_parameter",
                           ("UMA", "RPU")),
                ColumnSpec("feature_id", "categorical", "feature_descriptor", ("f0", "f1"),
                           open_levels=True),
                ColumnSpec("x_coordinate", "continuous", "manufacturing_parameter"),
                ColumnSpec("dft", "continuous", "target"),
            ),
            selected_inputs=("x_coordinate", "material"),
        )


def _document(**first_column):
    return {
        "columns": [
            {"name": "m", "kind": "categorical", "role": "manufacturing_parameter",
             "levels": ["A", "B"], **first_column},
            {"name": "dft", "kind": "continuous", "role": "target"},
        ],
        "selected_inputs": ["m"],
    }


class TestSchemaFromDict:
    @pytest.mark.parametrize("column", [
        {"open_levels": "false"},  # bool("false") would open the levels
        {"levels": "AB"},  # tuple("AB") would give the levels "A" and "B"
        {"open_level": True},  # misspelt: an unknown key
    ], ids=["string-open-levels", "string-levels", "misspelt-key"])
    def test_values_are_checked_not_converted(self, column):
        with pytest.raises(SchemaError):
            schema_from_dict(_document(**column))

    @pytest.mark.parametrize("doc", [[], {}, {"columns": 3}, {"columns": [1]},
                                     {**_document(), "selected_input": ["m"]}])
    def test_malformed_document_raises_schema_error(self, doc):
        with pytest.raises(SchemaError):
            schema_from_dict(doc)

    def test_integer_levels_load_as_strings(self):
        schema = schema_from_dict(_document(levels=[1, 2]))
        assert schema.column("m").levels == ("1", "2")
