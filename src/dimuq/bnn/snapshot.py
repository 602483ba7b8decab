"""Versioned binary snapshots of fitted networks (numpy .npz archives).

An archive holds the format version, the network kind, the constructor
arguments its ``ARCHITECTURE`` names and, under each layer's key prefix, the
layer's parameters and running statistics.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .models import EnsembleNetwork, HeadNetwork

FORMAT_VERSION = 1

_KINDS = {cls.KIND: cls for cls in (HeadNetwork, EnsembleNetwork)}


def _layer_arrays(model):
    """(archive key, layer, attribute name) of every layer array, in order."""
    return [(prefix + name, layer, name) for prefix, layer in model.named_layers()
            for name in layer.PARAMS + layer.STATISTICS]


def save_snapshot(model, path) -> None:
    if not isinstance(model, tuple(_KINDS.values())):
        raise ConfigError(f"cannot snapshot object of type {type(model).__name__}")
    arrays = {"format_version": np.array(FORMAT_VERSION),
              "model_kind": np.array(model.KIND)}
    arrays.update((name, np.array(getattr(model, name))) for name in model.ARCHITECTURE)
    arrays.update((key, getattr(layer, name)) for key, layer, name in _layer_arrays(model))
    np.savez(path, **arrays)


def load_snapshot(path):
    with np.load(path, allow_pickle=False) as archive:
        version = int(archive["format_version"])
        if version != FORMAT_VERSION:
            raise ConfigError(f"unsupported snapshot format version {version}")
        kind = str(archive["model_kind"])
        if kind not in _KINDS:
            raise ConfigError(f"unknown snapshot model kind {kind!r}")
        cls = _KINDS[kind]
        model = cls(**{name: archive[name].tolist() for name in cls.ARCHITECTURE})
        for key, layer, name in _layer_arrays(model):
            getattr(layer, name)[...] = archive[key]
        return model
