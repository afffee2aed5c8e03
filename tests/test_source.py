"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

import twotree

MODULES = sorted(
    p for p in Path(twotree.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name}: unused imports {unused}"


PACKAGE = sorted(Path(twotree.__file__).parent.glob("*.py"))


def _defined(tree):
    # The functions, classes and constants a module defines at its top level.
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def _uses(module, tree):
    # (module, name) for each module-level name this module uses: a name
    # it reads is its own; a sibling's counts when imported from it by
    # `from .mod import name` or read as `mod.name` after `from . import mod`.
    siblings = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module:
                    yield node.module, alias.name
                else:
                    siblings[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield module, node.id
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in siblings:
            yield siblings[node.value.id], node.attr


def _unreferenced(trees):
    # The module-level names of modules {name: tree} that nothing uses.
    used = {pair for module, tree in trees.items() for pair in _uses(module, tree)}
    return sorted(
        f"{module}.{name}" for module, tree in trees.items() for name in _defined(tree)
        if (module, name) not in used and not name.startswith("__")
    )


def test_every_module_level_name_is_used():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE}
    unused = _unreferenced(trees)
    assert not unused, f"module-level names nothing references: {unused}"


def test_a_name_is_used_only_through_its_own_module():
    # a's dead _grid is not kept by b's live _grid, nor b's unused by a
    # local of that name in a; b's other names are used by a's import and
    # a's attribute read.
    a = """from . import b
from .b import imported


def _grid():
    unused = b.read
    return unused, imported
"""
    b = """imported = read = unused = 1


def _grid():
    return 0


GRID = _grid()
"""
    trees = {"a": ast.parse(a), "b": ast.parse(b)}
    assert _unreferenced(trees) == ["a._grid", "b.GRID", "b.unused"]
