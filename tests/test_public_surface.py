"""Every function, class and method in ``src/`` is read by the program or by
the benchmark, not only by tests. A name that only tests reach is API
nobody runs: it goes, or, if a test still needs it as an oracle, it moves
into ``tests/helpers.py``.

A definition counts as read when its name is loaded (``name`` or
``obj.name``) somewhere in ``src/`` or ``perfbench/`` outside its own body.
Imports and ``__all__`` strings do not count; the ``module:Name.attr`` wrap
targets of ``perfbench/layers.py`` do."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dimuq"
PERFBENCH = ROOT / "perfbench"

# library entry points that no command calls
ALLOWED = {
    "bnn.snapshot:load_snapshot",  # the one reader of the snapshots `uq` writes
    "data:synthetic_matrix",       # the synthetic fixture as an encoded matrix
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_WRAP_TARGET = re.compile(r"^dimuq[\w.]*:([\w.]+)$")


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _walk(node, enclosing, definitions, reads, module=None):
    """Record each definition under ``module`` as (qualified name, node) and
    each loaded name with the definitions it sits in."""
    for child in ast.iter_child_nodes(node):
        inner = enclosing
        if isinstance(child, _DEFINITIONS):
            if module is not None and not child.name.startswith("__"):
                qualified = ".".join([d.name for d in enclosing] + [child.name])
                definitions.append((f"{module}:{qualified}", child))
            inner = enclosing + (child,)
        elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            reads.append((child.id, inner))
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            reads.append((child.attr, inner))
        _walk(child, inner, definitions, reads, module)


def _surface():
    definitions, reads = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        _walk(ast.parse(path.read_text()), (), definitions, reads, _module_name(path))
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        _walk(tree, (), [], reads)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                match = _WRAP_TARGET.match(node.value)
                if match:
                    reads += [(part, ()) for part in match.group(1).split(".")]
    return definitions, reads


def test_every_definition_is_read_outside_the_tests():
    definitions, reads = _surface()
    assert len(definitions) > 200
    readers = {}
    for name, enclosing in reads:
        readers.setdefault(name, []).append(enclosing)
    unread = [qualified for qualified, node in definitions
              if qualified not in ALLOWED
              and not any(node not in enclosing for enclosing in readers.get(node.name, ()))]
    assert unread == []
    assert ALLOWED <= {qualified for qualified, _ in definitions}
