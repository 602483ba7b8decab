"""Tabular ingestion, one-hot encoding, feature scaling, and synthetic fixtures.

Targets are dimensional deviations in mm and are never scaled; scaling applies
to continuous feature columns only, with one-hot indicator columns passed
through untouched.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LayoutMismatchError, LevelError, ParseError, SchemaError
from .schema import ColumnSpec, DataSchema, default_schema

SCALER_METHODS = ("zscore", "minmax", "none")


def _freeze(array: np.ndarray) -> np.ndarray:
    array = np.ascontiguousarray(array, dtype=np.float64)
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class RecordTable:
    """Parsed rows keyed by column name, with their schema."""

    schema: DataSchema
    rows: tuple[dict, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if not self.rows:
            raise SchemaError("record table must contain at least one row")
        names = {c.name for c in self.schema.columns}
        target = self.schema.target.name
        for i, row in enumerate(self.rows):
            missing = names - row.keys()
            if missing:
                raise SchemaError(f"row {i} is missing columns {sorted(missing)}")
            for col in self.schema.columns:
                value = row[col.name]
                if col.is_categorical and value not in col.levels:
                    raise LevelError(
                        f"row {i}: value {value!r} not a declared level of {col.name!r}"
                    )
            if not math.isfinite(row[target]):
                raise SchemaError(f"row {i}: non-finite target value")

    def __len__(self) -> int:
        return len(self.rows)

    def targets(self) -> np.ndarray:
        name = self.schema.target.name
        return _freeze(np.array([row[name] for row in self.rows]))


@dataclass(frozen=True)
class DesignMatrix:
    """Dense encoded features with aligned targets (mm) and column labels."""

    features: np.ndarray
    targets: np.ndarray
    column_labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "features", _freeze(np.atleast_2d(self.features)))
        object.__setattr__(self, "targets", _freeze(np.asarray(self.targets).ravel()))
        object.__setattr__(self, "column_labels", tuple(self.column_labels))
        n, width = self.features.shape
        if len(self.column_labels) != width:
            raise SchemaError(
                f"{len(self.column_labels)} column labels for {width} feature columns"
            )
        if self.targets.shape[0] != n:
            raise SchemaError("feature/target row counts differ")
        if not np.all(np.isfinite(self.features)) or not np.all(np.isfinite(self.targets)):
            raise SchemaError("design matrix contains non-finite values")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def width(self) -> int:
        return self.features.shape[1]

    def take(self, indices) -> "DesignMatrix":
        indices = np.asarray(indices, dtype=np.intp)
        return DesignMatrix(self.features[indices], self.targets[indices], self.column_labels)

    def indicator_mask(self) -> np.ndarray:
        """True for one-hot indicator columns (label form ``col=level``)."""
        return np.array(["=" in label for label in self.column_labels])


def load_csv(path, schema: DataSchema) -> RecordTable:
    """Parse a UTF-8 comma-delimited file against ``schema``.

    The header must name every schema column (extra file columns are
    ignored). Open-level categoricals collect unseen values into an extended
    schema carried by the returned table; closed ones reject them.
    """
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("file has no header row")
        header = [h.strip() for h in header]
        positions: dict[str, int] = {}
        for col in schema.columns:
            if col.name not in header:
                raise SchemaError(f"required column {col.name!r} missing from header")
            positions[col.name] = header.index(col.name)

        new_levels: dict[str, list[str]] = {}
        known: dict[str, set] = {c.name: set(c.levels) for c in schema.columns if c.is_categorical}
        rows: list[dict] = []
        for i, record in enumerate(reader):
            if len(record) < len(header):
                raise ParseError("row has fewer fields than the header", row=i)
            row: dict = {}
            for col in schema.columns:
                raw = record[positions[col.name]].strip()
                if raw == "":
                    raise ParseError("empty cell", row=i, column=col.name)
                if col.is_categorical:
                    if raw not in known[col.name]:
                        if not col.open_levels:
                            raise LevelError(
                                f"row {i}: value {raw!r} not a declared level of {col.name!r}"
                            )
                        known[col.name].add(raw)
                        new_levels.setdefault(col.name, []).append(raw)
                    row[col.name] = raw
                else:
                    try:
                        value = float(raw)
                    except ValueError:
                        raise ParseError(f"cannot parse {raw!r} as a number",
                                         row=i, column=col.name)
                    if col.role == "target" and not math.isfinite(value):
                        raise ParseError("non-finite target value", row=i, column=col.name)
                    row[col.name] = value
            rows.append(row)

    if not rows:
        raise ParseError("file contains a header but no data rows")
    for name, extra in new_levels.items():
        schema = schema.with_column(schema.column(name).with_extra_levels(tuple(extra)))
    return RecordTable(schema=schema, rows=tuple(rows))


def encode(table: RecordTable) -> DesignMatrix:
    """One-hot encode the selected inputs, keeping every categorical level.

    Continuous columns are copied verbatim; each categorical expands to one
    indicator column per declared level, in declared order, so each row's
    block sums to exactly 1.
    """
    schema = table.schema
    labels = schema.encoded_labels()
    features = np.zeros((len(table), schema.encoded_width()))
    offset = 0
    for col in schema.selected_columns:
        if col.is_categorical:
            index = {level: k for k, level in enumerate(col.levels)}
            for r, row in enumerate(table.rows):
                features[r, offset + index[row[col.name]]] = 1.0
            offset += len(col.levels)
        else:
            for r, row in enumerate(table.rows):
                features[r, offset] = row[col.name]
            offset += 1
    return DesignMatrix(features=features, targets=table.targets(), column_labels=labels)


@dataclass(frozen=True)
class ScalerState:
    """Fitted per-column statistics for continuous feature columns.

    ``shift``/``scale`` are identity (0, 1) for passthrough columns. Constant
    continuous columns get a unit-scale sentinel and are listed in
    ``flagged_constant``.
    """

    method: str
    column_labels: tuple[str, ...]
    shift: np.ndarray
    scale: np.ndarray
    flagged_constant: tuple[str, ...] = ()

    def __post_init__(self):
        if self.method not in SCALER_METHODS:
            raise SchemaError(f"unknown scaler method {self.method!r}")
        object.__setattr__(self, "shift", _freeze(self.shift))
        object.__setattr__(self, "scale", _freeze(self.scale))
        object.__setattr__(self, "column_labels", tuple(self.column_labels))
        if np.any(self.scale <= 0):
            raise SchemaError("scaler scale entries must be positive")


def fit_scaler(matrix: DesignMatrix, method: str = "zscore") -> ScalerState:
    """Fit column statistics on ``matrix`` (caller supplies training rows only)."""
    if method not in SCALER_METHODS:
        raise SchemaError(f"unknown scaler method {method!r}")
    width = matrix.width
    shift = np.zeros(width)
    scale = np.ones(width)
    flagged: list[str] = []
    if method != "none":
        continuous = ~matrix.indicator_mask()
        for j in np.flatnonzero(continuous):
            col = matrix.features[:, j]
            if method == "zscore":
                center, spread = col.mean(), col.std()
            else:
                center, spread = col.min(), col.max() - col.min()
            if spread <= 0.0:
                spread = 1.0
                flagged.append(matrix.column_labels[j])
            shift[j], scale[j] = center, spread
    return ScalerState(method=method, column_labels=matrix.column_labels,
                       shift=shift, scale=scale, flagged_constant=tuple(flagged))


def _check_layout(state: ScalerState, matrix: DesignMatrix) -> None:
    if state.column_labels != matrix.column_labels:
        raise LayoutMismatchError(
            "scaler was fitted on a different column layout "
            f"({len(state.column_labels)} vs {len(matrix.column_labels)} columns)"
        )


def apply_scaler(state: ScalerState, matrix: DesignMatrix) -> DesignMatrix:
    _check_layout(state, matrix)
    features = (matrix.features - state.shift) / state.scale
    return DesignMatrix(features, matrix.targets, matrix.column_labels)


# Synthetic fixture: additive offsets per categorical level plus smooth
# nonlinear terms in the coordinates. Amplitudes give a target spread of
# roughly 0.1 mm, similar to real deviation data.
_MATERIAL_OFFSET = {"UMA": -0.045, "RPU": 0.030, "EPX": 0.075}
_HARDWARE_OFFSET = {"1": -0.015, "2": 0.015}
_LAYOUT_OFFSET = {"A": -0.008, "B": 0.008}
_CLASS_OFFSET = {"thickness": -0.030, "length": 0.015, "diameter": 0.045, "height": -0.015}
_CATEGORY_OFFSET = {"inner": -0.022, "outer": 0.022}


def synthetic_ground_truth(row: dict) -> float:
    """Noise-free deviation for a synthetic row (mm)."""
    x = row["x_coordinate"]
    y = row["y_coordinate"]
    r = row["r_coordinate"]
    value = 0.09 * math.sin(x / 22.0)
    value += 0.075 * math.cos(y / 27.0)
    value += 0.00135 * (r - 45.0)
    value += 0.06 * math.tanh(x * y / 900.0)
    value += _MATERIAL_OFFSET[row["material"]]
    value += _HARDWARE_OFFSET[row["hardware_set"]]
    value += _LAYOUT_OFFSET[row["layout"]]
    value += _CLASS_OFFSET[row["feature_class"]]
    value += _CATEGORY_OFFSET[row["feature_category"]]
    return value


def generate_synthetic(n: int, noise_sigma: float, seed: int) -> RecordTable:
    """Draw ``n`` rows from the default schema's level sets and coordinate ranges.

    The target is ``synthetic_ground_truth`` plus Gaussian noise of standard
    deviation ``noise_sigma``; identical ``(n, noise_sigma, seed)`` give an
    identical table.
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    if noise_sigma < 0:
        raise ConfigError("noise_sigma must be >= 0")
    schema = default_schema()
    levels = {col.name: col.levels for col in schema.columns}
    rng = np.random.default_rng(np.random.SeedSequence([0x51D, seed]))

    def level(name: str) -> str:
        # the draw rng.choice(levels) makes, without its per-call overhead
        return levels[name][rng.integers(len(levels[name]))]

    rows = []
    for _ in range(n):
        x = float(rng.uniform(-60.0, 60.0))
        y = float(rng.uniform(-60.0, 60.0))
        row = {
            "hardware_set": level("hardware_set"),
            "material": level("material"),
            "thermal_cure": level("thermal_cure"),
            "layout": level("layout"),
            "x_coordinate": x,
            "y_coordinate": y,
            "r_coordinate": math.hypot(x, y),
            "unique_build_id": level("unique_build_id"),
            "part_design": level("part_design"),
            "nominal_dimension": float(rng.uniform(2.0, 40.0)),
            "feature_class": level("feature_class"),
            "feature_category": level("feature_category"),
            "unique_feature_id": level("unique_feature_id"),
        }
        row["dft"] = synthetic_ground_truth(row) + noise_sigma * float(rng.standard_normal())
        rows.append(row)
    return RecordTable(schema=schema, rows=tuple(rows))


def synthetic_matrix(n: int, noise_sigma: float, seed: int) -> DesignMatrix:
    """Convenience: generate and encode a synthetic table in one step."""
    return encode(generate_synthetic(n, noise_sigma, seed))


__all__ = [
    "RecordTable", "DesignMatrix", "ScalerState",
    "load_csv", "encode", "fit_scaler", "apply_scaler",
    "generate_synthetic", "synthetic_matrix", "synthetic_ground_truth",
    "ColumnSpec", "DataSchema", "default_schema",
]
