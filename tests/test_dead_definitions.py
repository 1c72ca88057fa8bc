"""Every function, class and module-level name that `src/aalstm/` defines
is used somewhere.

A use is a name in `src/aalstm/*.py` or `perfbench/*.py`: an `ast.Name`,
an `ast.Attribute`, an imported name, or a part of a tracer `BINDINGS`
string. A constant or type alias assigned at the top level of a module must
be loaded: read as an `ast.Name` or an `ast.Attribute`, so importing it is
not enough. Tests do not count, so a helper or a constant that only tests
read fails here. Dunder names are the language's and are not checked.
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


def _module_names(tree):
    """The names assigned at the top level of a module, with their lines."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        yield name.id, node.lineno


def _loads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


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


def test_every_module_level_name_is_loaded_somewhere():
    loaded = {name for path in USERS for name in _loads(_parse(path))}
    dead = [f"{path.relative_to(ROOT)}:{line} {name}"
            for path in SOURCES for name, line in _module_names(_parse(path))
            if name not in loaded]
    assert not dead, "assigned at module level but never loaded: " + ", ".join(dead)


def test_module_level_names_and_loads_are_read_off_the_tree():
    tree = ast.parse("A = 1\nB: int = 2\nC, (D, E) = 3, (4, 5)\n__all__ = []\n"
                     "from m import F\ndef f():\n    G = A + m.B\n")
    assert [name for name, _ in _module_names(tree)] == ["A", "B", "C", "D", "E"]
    assert set(_loads(tree)) == {"int", "A", "m", "B"}
