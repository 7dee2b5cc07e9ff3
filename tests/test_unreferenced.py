"""Every function, method, class and module-level name of the package has a
caller in the package.

A definition that only tests reach is not part of what the package does, so
it goes (or its test-side reference moves into ``tests/``). A module-level
name is one that a module's own top-level statement binds, e.g. a constant.
A reference is a name read, an attribute or an import alias anywhere in
``src/ocorobust`` outside ``__init__.py``, whose re-exports do not count as
use; binding a name does not read it, and neither does reading a function's
own local or argument of that name (a local ``step`` is not a call of
``oco.step``). Dunder names (``__version__``) are exempt, and so are the names
in ``PUBLIC``, which the README documents for callers outside the package.
"""

import ast
from pathlib import Path

import ocorobust

PACKAGE = Path(ocorobust.__file__).resolve().parent
# Names the package keeps for outside callers, with the reason.
PUBLIC = {"step": "README documents oco.step as the public single step"}
# Scopes with locals of their own: a read inside one of a name it binds is
# not a reference to a definition.
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp, ast.SetComp,
          ast.DictComp, ast.GeneratorExp)


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


def _own_locals(scope):
    """The names a function, lambda or comprehension ``scope`` binds itself:
    its arguments and the names it stores or catches, not those of the scopes
    nested in it. A nested ``def`` is a definition, so its name is not one."""
    names = set()
    args = getattr(scope, "args", None)
    if args is not None:
        names.update(a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                     args.vararg, args.kwarg) if a is not None)
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        if not isinstance(node, (*SCOPES, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    return names


def _references(node, local, referenced):
    """Add to ``referenced`` every name ``node`` and its children read,
    except reads of ``local``, the locals of the scopes around ``node``."""
    if isinstance(node, ast.Name):
        if not isinstance(node.ctx, ast.Store) and node.id not in local:
            referenced.add(node.id)
    elif isinstance(node, ast.Attribute):
        referenced.add(node.attr)
    elif isinstance(node, ast.alias):
        referenced.add(node.name.rsplit(".", 1)[-1])
        if node.asname:
            referenced.add(node.asname)
    if isinstance(node, SCOPES):
        local = local | _own_locals(node)
    for child in ast.iter_child_nodes(node):
        _references(child, local, referenced)


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
        if path.name != "__init__.py":
            _references(tree, frozenset(), referenced)
    return defined, referenced


def test_every_definition_is_referenced_in_the_package():
    defined, referenced = definitions_and_references()
    assert len(defined) > 100  # the scan saw the package
    unreferenced = {name: where for name, where in defined.items()
                    if name not in referenced and name not in PUBLIC}
    assert unreferenced == {}
    assert set(PUBLIC) <= set(defined) - referenced  # no stale entry


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


def test_scan_skips_reads_of_locals_and_arguments(tmp_path):
    # a function's own local or argument named like a definition does not
    # reference it, in the function or in a lambda or comprehension within
    # it; a read in a nested function of the enclosing one's local does not
    # either, while a call of a nested def does reference that def
    (tmp_path / "mod.py").write_text(
        "def step():\n    pass\n\n\ndef value():\n    pass\n\n\n"
        "def lonely():\n    pass\n\n\n"
        "def run(value):\n    step = 1\n    inner = lambda: step + value\n"
        "    [lonely for lonely in range(3)]\n\n"
        "    def helper():\n        return step\n\n    return inner() + helper()\n")
    (tmp_path / "__init__.py").write_text("from .mod import run\n")
    defined, referenced = definitions_and_references(tmp_path)
    assert set(defined) - referenced == {"step", "value", "lonely", "run"}
