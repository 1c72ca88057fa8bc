"""Every function and class that `src/aalstm/` defines is used somewhere.

A use is a name in `src/aalstm/*.py` or `perfbench/*.py`: an `ast.Name`,
an `ast.Attribute`, an imported name, or a part of a tracer `BINDINGS`
string. Tests do not count, so a helper that only tests call fails here.
Dunder methods are called by the language and are not checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "aalstm").glob("*.py"))
USERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))


def _definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, node.lineno


def _binding_parts(tree):
    """The dotted parts of every "module:Class.method" string bound to
    `BINDINGS`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "BINDINGS" for t in node.targets):
            for const in ast.walk(node.value):
                if isinstance(const, ast.Constant) and isinstance(const.value, str):
                    for part in const.value.split(":"):
                        yield from part.split(".")


def _uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield from alias.name.split(".")
    yield from _binding_parts(tree)


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _used():
    return {name for path in USERS for name in _uses(_parse(path))}


def test_every_source_definition_is_named_somewhere():
    used = _used()
    dead = [f"{path.relative_to(ROOT)}:{line} {name}"
            for path in SOURCES for name, line in _definitions(_parse(path))
            if name not in used]
    assert not dead, "defined but never named: " + ", ".join(dead)
