"""Every module-level private name of the package is used in the package,
and only in the module that defines it.

A private helper whose last caller is gone is dead code that the tests
alone would keep alive, and one that another module reaches into is a
format with two owners.  The source is read with ``ast``, so a name
mentioned only in a docstring or comment does not count as a use, nor does
a reference from inside the name's own definition.
"""

import ast
from pathlib import Path

import christoffel

SOURCES = sorted(Path(christoffel.__file__).parent.glob("*.py"))


def private_definitions(tree):
    """(name, node) of each module-level private function, class or
    assigned constant; dunder names are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def loaded_names(node):
    """Names read as a variable or an attribute anywhere in ``node``."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def test_every_private_name_is_used():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert "convexity.py" in trees
    loads = [(stmt, loaded_names(stmt)) for tree in trees.values() for stmt in tree.body]
    unused = [f"{module}: {name}" for module, tree in trees.items()
              for name, node in private_definitions(tree)
              if not any(name in names for stmt, names in loads if stmt is not node)]
    assert unused == []


def private_imports(tree):
    """``module._name`` of each private name of another package module that
    ``tree`` imports (``from .module import _name``) or reads as an
    attribute of a package module it imported (``module._name``)."""
    modules = {}  # local name -> package module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    found.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            found.append(f"{modules[node.value.id]}.{node.attr}")
    return found


def test_no_private_name_crosses_modules():
    crossings = [f"{path.stem} <- {name}" for path in SOURCES
                 for name in private_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert crossings == []


def test_crossing_guard_sees_both_forms():
    planted = ast.parse("from . import harmonics\nfrom .sphere import _polar_rule, make_grid\n"
                        "x = harmonics._widest\ny = harmonics.analyze\n")
    assert private_imports(planted) == ["sphere._polar_rule", "harmonics._widest"]
