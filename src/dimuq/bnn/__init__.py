"""Probabilistic neural regressors with aleatoric/epistemic decomposition."""

from .layers import BatchNormLayer, DenseLayer, VariationalDenseLayer, softplus, softplus_inverse
from .models import (
    DEFAULT_ENSEMBLE_EPOCHS,
    DEFAULT_HEAD_EPOCHS,
    EnsembleConfig,
    EnsembleNetwork,
    GaussianHead,
    HeadConfig,
    HeadNetwork,
    train_ensemble_model,
    train_head_model,
)
from .snapshot import load_snapshot, save_snapshot
from .uncertainty import DEFAULT_DRAWS, decompose_uncertainty, ensemble_predict

__all__ = [
    "BatchNormLayer", "DenseLayer", "VariationalDenseLayer",
    "softplus", "softplus_inverse",
    "GaussianHead", "HeadConfig", "EnsembleConfig",
    "DEFAULT_HEAD_EPOCHS", "DEFAULT_ENSEMBLE_EPOCHS", "DEFAULT_DRAWS",
    "HeadNetwork", "EnsembleNetwork",
    "train_head_model", "train_ensemble_model",
    "ensemble_predict", "decompose_uncertainty",
    "save_snapshot", "load_snapshot",
]
