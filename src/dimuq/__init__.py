"""Tabular regression toolkit for dimensional-deviation prediction with
aleatoric/epistemic uncertainty quantification."""

__version__ = "0.1.0"

from .data import (
    DesignMatrix,
    RecordTable,
    ScalerState,
    apply_scaler,
    encode,
    fit_scaler,
    generate_synthetic,
    load_csv,
    synthetic_matrix,
)
from .metrics import ParityTable, Prediction, PredictiveDistribution, rmse
from .schema import ColumnSpec, DataSchema, default_schema, load_schema

__all__ = [
    "__version__",
    "ColumnSpec", "DataSchema", "default_schema", "load_schema",
    "RecordTable", "DesignMatrix", "ScalerState",
    "load_csv", "encode", "fit_scaler", "apply_scaler",
    "generate_synthetic", "synthetic_matrix",
    "rmse",
    "Prediction", "PredictiveDistribution", "ParityTable",
]
