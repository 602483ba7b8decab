"""Shared regressor contracts, the error metrics used throughout, and the
one CSV and one JSON writer of every output file.

RMSE in mm is the single accuracy metric.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError


def rmse(predicted, actual) -> float:
    """Root mean square difference between two aligned vectors (mm)."""
    predicted = np.asarray(predicted, dtype=np.float64).ravel()
    actual = np.asarray(actual, dtype=np.float64).ravel()
    if predicted.size == 0:
        raise ConfigError("rmse of empty vectors is undefined")
    if predicted.shape != actual.shape:
        raise ConfigError(f"length mismatch: {predicted.size} vs {actual.size}")
    return float(np.sqrt(np.mean((predicted - actual) ** 2)))


@dataclass(frozen=True)
class Prediction:
    """Point predictions in mm."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64).ravel()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if not np.all(np.isfinite(values)):
            raise NumericError("prediction contains non-finite values")

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class PredictiveDistribution:
    """Per-query Gaussian predictive mean and standard deviation (mm)."""

    means: np.ndarray
    stddevs: np.ndarray

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64).ravel()
        stddevs = np.asarray(self.stddevs, dtype=np.float64).ravel()
        means.setflags(write=False)
        stddevs.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stddevs", stddevs)
        if means.shape != stddevs.shape:
            raise ConfigError("means and stddevs must have equal length")
        if not (np.all(np.isfinite(means)) and np.all(np.isfinite(stddevs))):
            raise NumericError("predictive distribution contains non-finite values")
        if np.any(stddevs < 0):
            raise ConfigError("predictive stddevs must be >= 0")

    def __len__(self) -> int:
        return self.means.size


class Regressor:
    """Minimal contract every model family implements.

    ``fit`` consumes an encoded, already-scaled design matrix and records its
    column count as ``width``; ``predict`` reads a raw feature array through
    ``queries`` and is deterministic given the fitted state.
    """

    width: int | None = None  # the fitted matrix's column count

    def fit(self, matrix) -> "Regressor":
        raise NotImplementedError

    def predict(self, features) -> Prediction:
        raise NotImplementedError

    def queries(self, features) -> np.ndarray:
        """``features`` as 2-D float queries of the fitted width, else ConfigError."""
        if self.width is None:
            raise ConfigError("predict before fit")
        queries = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if queries.ndim != 2 or queries.shape[1] != self.width:
            raise ConfigError(f"queries of shape {queries.shape} do not match "
                              f"{self.width} training columns")
        return queries

    def diagnostics(self) -> dict:
        """Optional fitted-state summary carried into evaluation reports."""
        return {}


class ProbabilisticRegressor(Regressor):
    """Adds a per-query predictive distribution on top of point predictions."""

    def predict(self, features) -> Prediction:
        """By default the means of ``predict_dist``."""
        return Prediction(self.predict_dist(features).means)

    def predict_dist(self, features) -> PredictiveDistribution:
        raise NotImplementedError

    def predict_spread(self, features):
        """(means, aleatoric, epistemic or None) per query (mm); by default
        every stddev of ``predict_dist`` counts as aleatoric."""
        dist = self.predict_dist(features)
        return dist.means, dist.stddevs, None


def csv_text(header, rows) -> str:
    """The text of a CSV file: the ``header`` names, then one line per row.
    A float cell is written to 10 significant digits, ``None`` as an empty
    cell and anything else by ``str``; nothing is quoted."""
    def cell(value) -> str:
        if value is None:
            return ""
        return format(value, ".10g") if isinstance(value, float) else str(value)

    lines = [",".join(header)]
    lines += [",".join(cell(value) for value in row) for row in rows]
    return "\n".join(lines) + "\n"


def json_text(doc) -> str:
    """The text of a JSON file: two-space indent, sorted keys, one trailing
    newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


PARITY_HEADER = "measured_mm,predicted_mm,aleatoric_mm,epistemic_mm"


@dataclass(frozen=True)
class ParityTable:
    """Measured vs predicted rows, optionally with uncertainty columns (mm)."""

    measured: np.ndarray
    predicted: np.ndarray
    aleatoric: np.ndarray | None = None
    epistemic: np.ndarray | None = None

    def __post_init__(self):
        measured = np.asarray(self.measured, dtype=np.float64).ravel()
        predicted = np.asarray(self.predicted, dtype=np.float64).ravel()
        object.__setattr__(self, "measured", measured)
        object.__setattr__(self, "predicted", predicted)
        if measured.shape != predicted.shape:
            raise ConfigError("measured/predicted length mismatch")
        for name in ("aleatoric", "epistemic"):
            column = getattr(self, name)
            if column is not None:
                column = np.asarray(column, dtype=np.float64).ravel()
                object.__setattr__(self, name, column)
                if column.shape != measured.shape:
                    raise ConfigError(f"{name} column length mismatch")
                if not np.all(np.isfinite(column)):
                    raise ConfigError(f"{name} column contains non-finite values")
        if not (np.all(np.isfinite(measured)) and np.all(np.isfinite(predicted))):
            raise ConfigError("parity table contains non-finite values")

    def __len__(self) -> int:
        return self.measured.size

    def to_csv(self) -> str:
        spread = [[None] * len(self) if column is None else column
                  for column in (self.aleatoric, self.epistemic)]
        return csv_text(PARITY_HEADER.split(","), zip(self.measured, self.predicted, *spread))
