"""Every function, method and class of the package has a caller in the package.

A definition that only tests reach is not part of what the package does, so
it goes (or its test-side reference moves into ``tests/``). A reference is a
name, an attribute or an import alias anywhere in ``src/ocorobust`` outside
``__init__.py``, whose re-exports do not count as use.
"""

import ast
from pathlib import Path

import ocorobust

PACKAGE = Path(ocorobust.__file__).resolve().parent


def definitions_and_references(package=PACKAGE):
    defined, referenced = {}, set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, []).append(f"{path.name}:{node.lineno}")
            if path.name == "__init__.py":
                continue
            if isinstance(node, ast.Name):
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
