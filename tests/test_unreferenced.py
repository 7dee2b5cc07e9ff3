"""Every function, method, class and module-level name of the package has a
caller in the package.

A definition that only tests reach is not part of what the package does, so
it goes (or its test-side reference moves into ``tests/``). A module-level
name is one that a module's own top-level statement binds, e.g. a constant.
A reference is a name read, an attribute or an import alias anywhere in
``src/ocorobust`` outside ``__init__.py``, whose re-exports do not count as
use; binding a name does not read it. Dunder names (``__version__``) are
exempt.
"""

import ast
from pathlib import Path

import ocorobust

PACKAGE = Path(ocorobust.__file__).resolve().parent


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _module_names(tree):
    """(name, line) of every name a top-level assignment of ``tree`` binds."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name):
                    yield node.id, stmt.lineno


def definitions_and_references(package=PACKAGE):
    defined, referenced = {}, set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, line in _module_names(tree):
            if not _dunder(name):
                defined.setdefault(name, []).append(f"{path.name}:{line}")
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not _dunder(node.name):
                    defined.setdefault(node.name, []).append(f"{path.name}:{node.lineno}")
            if path.name == "__init__.py":
                continue
            if isinstance(node, ast.Name):
                if not isinstance(node.ctx, ast.Store):
                    referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name.rsplit(".", 1)[-1])
                if node.asname:
                    referenced.add(node.asname)
    return defined, referenced


def test_every_definition_is_referenced_in_the_package():
    defined, referenced = definitions_and_references()
    assert len(defined) > 100  # the scan saw the package
    unreferenced = {name: where for name, where in defined.items() if name not in referenced}
    assert unreferenced == {}


def test_scan_finds_an_unreferenced_definition(tmp_path):
    # the guard itself: a helper that only a re-export names is reported
    (tmp_path / "mod.py").write_text("def used():\n    pass\n\n\ndef lonely():\n    used()\n")
    (tmp_path / "__init__.py").write_text("from .mod import lonely\n")
    defined, referenced = definitions_and_references(tmp_path)
    assert set(defined) - referenced == {"lonely"}


def test_scan_finds_an_unreferenced_module_name(tmp_path):
    # a constant that nothing in the package reads is reported, whether it is
    # bound alone, in a tuple or with an annotation; one read by a function
    # is not, and neither is a dunder
    (tmp_path / "mod.py").write_text(
        "USED = 1\nLONELY = 2\nPAIR, ALONE = 3, 4\nTYPED: int = 5\n"
        "__version__ = '0'\n\n\ndef f():\n    return USED + PAIR\n")
    (tmp_path / "__init__.py").write_text("from .mod import LONELY, f\n")
    defined, referenced = definitions_and_references(tmp_path)
    assert set(defined) - referenced == {"LONELY", "ALONE", "TYPED", "f"}
