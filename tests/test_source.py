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
# Module-level names that no module of the package references, each with
# the reason it stays.
UNREFERENCED = {"bareiss.det_int": "perfbench/spans.py spans it by name"}


def _defined(tree):
    # The functions, classes and constants a module defines at its top level.
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def _referenced(tree):
    # Every name read, attribute taken or name imported (re-exports count).
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_module_level_name_is_used():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE}
    used = {name for tree in trees.values() for name in _referenced(tree)}
    unused = sorted(
        f"{module}.{name}" for module, tree in trees.items() for name in _defined(tree)
        if name not in used and not name.startswith("__")
    )
    assert unused == sorted(UNREFERENCED), f"module-level names nothing references: {unused}"
