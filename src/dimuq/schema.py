"""Dataset schema: column declarations, input selection, and the built-in default.

A schema lists every column of the measurement table (name, kind, role, and
the level inventory for categoricals) plus the subset of columns actually fed
to the models. Schemas are immutable; appending levels to an open categorical
produces a new schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from .errors import ConfigError, SchemaError

KINDS = ("continuous", "categorical")
ROLES = ("manufacturing_parameter", "feature_descriptor", "target", "ignored")


@dataclass(frozen=True)
class ColumnSpec:
    """One column declaration.

    Categorical columns carry an ordered level inventory (at least two
    entries); an integer level is stored as its decimal string.
    ``open_levels`` lets ingestion append unseen levels instead of rejecting
    them.
    """

    name: str
    kind: str
    role: str
    levels: tuple[str | int, ...] = ()
    open_levels: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SchemaError(f"unknown column kind {self.kind!r} for {self.name!r}")
        if self.role not in ROLES:
            raise SchemaError(f"unknown column role {self.role!r} for {self.name!r}")
        object.__setattr__(self, "levels", tuple(str(v) for v in self.levels))
        if self.kind == "continuous":
            if self.levels:
                raise SchemaError(f"continuous column {self.name!r} must not declare levels")
        else:
            if len(self.levels) < 2:
                raise SchemaError(f"categorical column {self.name!r} needs >= 2 levels")
            if len(set(self.levels)) != len(self.levels):
                raise SchemaError(f"categorical column {self.name!r} has duplicate levels")

    @property
    def is_categorical(self) -> bool:
        return self.kind == "categorical"

    def with_extra_levels(self, extra: tuple[str, ...]) -> "ColumnSpec":
        return replace(self, levels=self.levels + tuple(extra))


@dataclass(frozen=True)
class DataSchema:
    """Ordered column declarations plus the model input selection."""

    columns: tuple[ColumnSpec, ...]
    selected_inputs: tuple[str, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "selected_inputs", tuple(self.selected_inputs))
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names in schema")
        targets = [c for c in self.columns if c.role == "target"]
        if len(targets) != 1:
            raise SchemaError(f"schema must declare exactly one target column, found {len(targets)}")
        if targets[0].kind != "continuous":
            raise SchemaError("target column must be continuous")
        by_name = {c.name: c for c in self.columns}
        if not self.selected_inputs:
            raise SchemaError("schema must select at least one input column")
        for name in self.selected_inputs:
            col = by_name.get(name)
            if col is None:
                raise SchemaError(f"selected input {name!r} is not a schema column")
            if col.role in ("target", "ignored"):
                raise SchemaError(f"selected input {name!r} has role {col.role!r}")
        if len(set(self.selected_inputs)) != len(self.selected_inputs):
            raise SchemaError("selected_inputs contains duplicates")

    def column(self, name: str) -> ColumnSpec:
        for col in self.columns:
            if col.name == name:
                return col
        raise SchemaError(f"no column named {name!r}")

    @property
    def target(self) -> ColumnSpec:
        return next(c for c in self.columns if c.role == "target")

    @property
    def selected_columns(self) -> tuple[ColumnSpec, ...]:
        return tuple(self.column(name) for name in self.selected_inputs)

    def encoded_width(self) -> int:
        width = 0
        for col in self.selected_columns:
            width += len(col.levels) if col.is_categorical else 1
        return width

    def encoded_labels(self) -> tuple[str, ...]:
        labels: list[str] = []
        for col in self.selected_columns:
            if col.is_categorical:
                labels.extend(f"{col.name}={level}" for level in col.levels)
            else:
                labels.append(col.name)
        return tuple(labels)

    def with_column(self, updated: ColumnSpec) -> "DataSchema":
        cols = tuple(updated if c.name == updated.name else c for c in self.columns)
        return DataSchema(columns=cols, selected_inputs=self.selected_inputs)


def default_schema() -> DataSchema:
    """Built-in schema for the part-measurement table.

    Thirteen input columns (eight process parameters, five feature
    descriptors) plus the dimensional-deviation target in mm. The default
    input selection uses the six process parameters that are neither an
    experiment identifier nor confounded with material, plus the two feature
    descriptors; its one-hot encoding is 16 columns wide.
    """
    columns = (
        ColumnSpec("hardware_set", "categorical", "manufacturing_parameter", ("1", "2")),
        ColumnSpec("material", "categorical", "manufacturing_parameter", ("UMA", "RPU", "EPX")),
        ColumnSpec("thermal_cure", "categorical", "manufacturing_parameter",
                   ("standard", "extended"), open_levels=True),
        ColumnSpec("layout", "categorical", "manufacturing_parameter", ("A", "B")),
        ColumnSpec("x_coordinate", "continuous", "manufacturing_parameter"),
        ColumnSpec("y_coordinate", "continuous", "manufacturing_parameter"),
        ColumnSpec("r_coordinate", "continuous", "manufacturing_parameter"),
        ColumnSpec("unique_build_id", "categorical", "manufacturing_parameter",
                   tuple(str(i) for i in range(1, 10))),
        ColumnSpec("part_design", "categorical", "feature_descriptor", ("clip", "plug", "bracket")),
        ColumnSpec("nominal_dimension", "continuous", "feature_descriptor"),
        ColumnSpec("feature_class", "categorical", "feature_descriptor",
                   ("thickness", "length", "diameter", "height")),
        ColumnSpec("feature_category", "categorical", "feature_descriptor", ("inner", "outer")),
        ColumnSpec("unique_feature_id", "categorical", "feature_descriptor",
                   ("f0", "f1"), open_levels=True),
        ColumnSpec("dft", "continuous", "target"),
    )
    selected = (
        "hardware_set", "material", "layout",
        "x_coordinate", "y_coordinate", "r_coordinate",
        "feature_class", "feature_category",
    )
    return DataSchema(columns=columns, selected_inputs=selected)


def schema_from_dict(doc: dict) -> DataSchema:
    """The schema a JSON document describes. Each column, then the document,
    is read as every config block is (``harness.families.read_config``):
    values are checked, not converted, and an unknown key is an error."""
    from .harness.families import read_config  # the harness imports this module
    try:
        columns = [read_config(ColumnSpec, column, f"schema column {i}")
                   for i, column in enumerate(doc["columns"])]
        return read_config(DataSchema, {**doc, "columns": columns}, "schema")
    except (ConfigError, KeyError, TypeError) as exc:
        raise SchemaError(f"malformed schema document: {exc}") from exc


def load_schema(path) -> DataSchema:
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"schema file {path} is not valid JSON: {exc}") from exc
    return schema_from_dict(doc)
