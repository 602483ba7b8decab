"""The benchmark times the program by wrapping functions on the names its
callers look up (``perfbench/layers.py``). A refactor that drops or renames
one of those names, or moves a wrapped method out of its class into a base
class, fails here, without running the benchmark."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_wrap_point_and_protocol_entry_point_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    targets = [t for _, names, _ in layers.WRAP_POINTS for t in names]
    targets += layers.PROTOCOL_ENTRY_POINTS
    assert len(targets) > 25
    for target in targets:
        owner, attribute = layers.resolve(target)
        assert callable(getattr(owner, attribute)), target
        if isinstance(owner, type):
            # install() wraps a method where its class defines it, not
            # where the class inherits it
            assert attribute in owner.__dict__, target
