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


def _imported_modules(tree):
    # The modules a tree imports anywhere, by their first name; a relative
    # import names the sibling, `from . import formulas` as `from .formulas`.
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                yield node.module.partition(".")[0]
            else:
                yield from (alias.name for alias in node.names)


def test_the_engine_imports_neither_os_nor_formulas():
    # The engine runs no processes, and the closed forms it is checked
    # against stay independent of it.
    engine = Path(twotree.__file__).parent / "engine.py"
    imported = set(_imported_modules(ast.parse(engine.read_text(), filename=str(engine))))
    assert imported and not imported & {"os", "formulas"}, sorted(imported)


def test_imported_modules_reads_every_form_of_import():
    tree = ast.parse("import os.path\nfrom . import formulas as f\nfrom .graphs import x\n"
                     "def g():\n    from subprocess import run\n")
    assert sorted(_imported_modules(tree)) == ["formulas", "graphs", "os", "subprocess"]


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


PERFBENCH = sorted((Path(__file__).resolve().parent.parent / "perfbench").glob("*.py"))


def _unread_methods(trees, readers):
    # The non-dunder methods the classes of modules {name: tree} define that
    # no attribute read in the trees `readers` names. Names, not types: a
    # read of any attribute so named counts.
    read = {node.attr for tree in readers for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(
        f"{module}.{cls.name}.{item.name}"
        for module, tree in trees.items()
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("__") and item.name not in read
    )


def test_every_method_is_read():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE}
    assert PERFBENCH, "perfbench/ holds no module"
    readers = [*trees.values(), *(ast.parse(p.read_text(), filename=str(p)) for p in PERFBENCH)]
    unread = _unread_methods(trees, readers)
    assert not unread, f"methods nothing reads: {unread}"


def test_a_method_counts_as_read_only_by_an_attribute_load():
    # shown is read in the other tree; stored is only assigned to and
    # hidden only called by its bare name.
    a = """class Net:
    def __init__(self):
        self.stored = 1

    def shown(self):
        return hidden()

    def stored(self):
        return 0

    def hidden(self):
        return 1
"""
    b = "print(Net().shown())\n"
    trees = {"a": ast.parse(a)}
    assert _unread_methods(trees, [trees["a"], ast.parse(b)]) == ["a.Net.hidden", "a.Net.stored"]
    assert _unread_methods(trees, [trees["a"]]) == ["a.Net.hidden", "a.Net.shown", "a.Net.stored"]
