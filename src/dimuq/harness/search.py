"""Grid search scored by k-fold cross-validated negative RMSE.

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
        axes = {str(k): list(v) for k, v in self.axes.items()}
        object.__setattr__(self, "axes", axes)
        for name, values in axes.items():
            if not values:
                raise ConfigError(f"grid axis {name!r} is empty")

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


def grid_search(family: str, grid: HyperGrid, train: DesignMatrix, k: int,
                seed: int, scaler_method: str = "zscore",
                instrumentation=None) -> CvResult:
    """Mean negative RMSE across folds per candidate; first-wins on ties."""
    candidates = grid.candidates()
    folds = kfold_indices(train.n_rows, k, seed)
    all_rows = np.arange(train.n_rows)
    # the fold's scaler and scaled sides do not depend on the candidate
    scaled_folds = []
    for fold_id, validation in enumerate(folds):
        training = np.setdiff1d(all_rows, validation)
        if instrumentation is not None:
            instrumentation("grid_fold", fold=fold_id, train_rows=training,
                            validation_rows=validation)
        fit_part = train.take(training)
        val_part = train.take(validation)
        scaler = fit_scaler(fit_part, scaler_method)
        if instrumentation is not None:
            instrumentation("grid_scaler_fit", rows=training)
        scaled_folds.append((apply_scaler(scaler, fit_part),
                             apply_scaler(scaler, val_part).features, val_part.targets))

    mean_scores: list[float] = []
    fold_scores: list[tuple] = []
    errors: list[str | None] = []
    for candidate in candidates:
        scores = []
        failure = None
        for fit_scaled, val_features, val_targets in scaled_folds:
            try:
                model = build_model(family, candidate, seed=seed)
                model.fit(fit_scaled)
                predicted = model.predict(val_features)
                scores.append(-rmse(predicted.values, val_targets))
            except DimuqError as exc:
                failure = f"{type(exc).__name__}: {exc}"
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
        )
    chosen = int(np.argmax(mean_scores))
    return CvResult(family=family, candidates=tuple(candidates),
                    mean_scores=tuple(mean_scores), fold_scores=tuple(fold_scores),
                    chosen_index=chosen, errors=tuple(errors))
