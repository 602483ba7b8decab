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
from ..errors import ConfigError, DimuqError, NumericError, SearchError
from ..metrics import Prediction, rmse
from .families import build_model, path_axis
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
    """Mean negative RMSE across folds per candidate; first-wins on ties.

    Candidates that agree on every axis but the family's path axis form one
    path. Each fold fits a path once, at its largest value, and scores every
    value from that fit's ``predict_path``; a family or grid without a path
    axis has one-candidate paths. A candidate fails alone, with the error of
    its own build, fit or prediction on its first failing fold, and the rest
    of its path is still scored.
    """
    candidates = grid.candidates()
    all_rows = np.arange(train.n_rows)
    # the fold's scaled sides do not depend on the candidate
    scaled_folds = [scale_split(train.take(np.setdiff1d(all_rows, validation)),
                                train.take(validation), scaler_method)
                    for validation in kfold_indices(train.n_rows, k, seed)]

    axis = path_axis(family) if path_axis(family) in grid.axes else None
    failures: list[DimuqError | None] = [None] * len(candidates)
    values: list = [None] * len(candidates)
    paths: list[tuple[dict, list[int]]] = []
    for index, candidate in enumerate(candidates):
        # built before it joins a path, so a bad value fails only its candidate
        try:
            model = build_model(family, candidate, seed=seed)
        except DimuqError as exc:
            failures[index] = exc
            continue
        others = {name: value for name, value in candidate.items() if name != axis}
        path = next((path for shared, path in paths if axis and shared == others), None)
        if path is None:
            paths.append((others, [index]))
        else:
            path.append(index)
        if axis:
            values[index] = getattr(model.config, axis)

    scores: list[list[float]] = [[] for _ in candidates]
    for fit_scaled, val_scaled in scaled_folds:
        for _, path in paths:
            # largest first, None above every number; a top that fails (k
            # above the fold's rows) drops out and the next one is fitted
            live = sorted((i for i in path if failures[i] is None), reverse=True,
                          key=lambda i: (values[i] is None, values[i] or 0))
            outputs = []
            while live:
                try:
                    model = build_model(family, candidates[live[0]], seed=seed)
                    model.fit(fit_scaled)
                    outputs = (model.predict_path(val_scaled.features,
                                                  [values[i] for i in live])
                               if axis else [model.predict(val_scaled.features).values])
                    break
                except DimuqError as exc:
                    failures[live.pop(0)] = exc
            for index, output in zip(live, outputs):
                try:
                    score = -rmse(Prediction(output).values, val_scaled.targets)
                    if not np.isfinite(score):
                        raise NumericError("the fold's validation RMSE overflowed")
                    scores[index].append(score)
                except DimuqError as exc:
                    failures[index] = exc

    errors = [None if exc is None else f"{type(exc).__name__}: {exc}" for exc in failures]
    mean_scores = [-np.inf if exc is not None else float(np.mean(fold))
                   for exc, fold in zip(failures, scores)]
    if not np.isfinite(np.max(mean_scores)):
        raise SearchError(
            f"every candidate failed; first error: {next(e for e in errors if e)}"
        ) from next((exc for exc in failures if exc is not None), None)
    chosen = int(np.argmax(mean_scores))
    return CvResult(family=family, candidates=tuple(candidates),
                    mean_scores=tuple(mean_scores),
                    fold_scores=tuple(() if exc is not None else tuple(fold)
                                      for exc, fold in zip(failures, scores)),
                    chosen_index=chosen, errors=tuple(errors))
