"""Grid search scored by k-fold cross-validated negative RMSE, and the one
train-fitted scaling step every harness and CLI fit goes through.

Every fold fits its own scaler on the fold's training rows before either
side is transformed, so no validation statistic leaks into preprocessing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ..data import DesignMatrix, apply_scaler, fit_scaler
from ..errors import ConfigError, DimuqError, SearchError
from ..metrics import rmse
from .families import build_model
from .splits import kfold_indices


@dataclass(frozen=True)
class HyperGrid:
    family: str
    axes: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.axes, dict):
            raise ConfigError(f"a {self.family} grid maps axis names to value lists, "
                              f"not {self.axes!r}")
        for name, values in self.axes.items():
            if not (isinstance(values, list) and values):
                raise ConfigError(f"grid axis {name!r} must be a nonempty list, not {values!r}")
        object.__setattr__(self, "axes", {str(k): list(v) for k, v in self.axes.items()})

    def candidates(self) -> list[dict]:
        """Cartesian product in declared axis order; a no-axis grid has one
        empty candidate (family defaults)."""
        if not self.axes:
            return [{}]
        names = list(self.axes)
        return [dict(zip(names, combo))
                for combo in itertools.product(*(self.axes[n] for n in names))]


@dataclass(frozen=True)
class CvResult:
    family: str
    candidates: tuple
    mean_scores: tuple
    fold_scores: tuple
    chosen_index: int
    errors: tuple

    @property
    def chosen_params(self) -> dict:
        return dict(self.candidates[self.chosen_index])


def scale_split(train: DesignMatrix, test: DesignMatrix,
                method: str) -> tuple[DesignMatrix, DesignMatrix]:
    """Fit the scaler on ``train`` alone and return both sides scaled by it.

    The only place ``fit_scaler`` and ``apply_scaler`` are called, so every
    fit sees statistics of its own training rows and nothing else."""
    scaler = fit_scaler(train, method)
    return apply_scaler(scaler, train), apply_scaler(scaler, test)


def grid_search(family: str, grid: HyperGrid, train: DesignMatrix, k: int,
                seed: int, scaler_method: str = "zscore") -> CvResult:
    """Mean negative RMSE across folds per candidate; first-wins on ties."""
    candidates = grid.candidates()
    all_rows = np.arange(train.n_rows)
    # the fold's scaled sides do not depend on the candidate
    scaled_folds = [scale_split(train.take(np.setdiff1d(all_rows, validation)),
                                train.take(validation), scaler_method)
                    for validation in kfold_indices(train.n_rows, k, seed)]

    mean_scores: list[float] = []
    fold_scores: list[tuple] = []
    errors: list[str | None] = []
    first_failure = None
    for candidate in candidates:
        scores = []
        failure = None
        for fit_scaled, val_scaled in scaled_folds:
            try:
                model = build_model(family, candidate, seed=seed)
                model.fit(fit_scaled)
                predicted = model.predict(val_scaled.features)
                scores.append(-rmse(predicted.values, val_scaled.targets))
            except DimuqError as exc:
                failure = f"{type(exc).__name__}: {exc}"
                first_failure = first_failure or exc
                break
        if failure is None:
            mean_scores.append(float(np.mean(scores)))
            fold_scores.append(tuple(scores))
            errors.append(None)
        else:
            mean_scores.append(-np.inf)
            fold_scores.append(())
            errors.append(failure)

    if not np.isfinite(np.max(mean_scores)):
        raise SearchError(
            f"every candidate failed; first error: {next(e for e in errors if e)}"
        ) from first_failure
    chosen = int(np.argmax(mean_scores))
    return CvResult(family=family, candidates=tuple(candidates),
                    mean_scores=tuple(mean_scores), fold_scores=tuple(fold_scores),
                    chosen_index=chosen, errors=tuple(errors))
