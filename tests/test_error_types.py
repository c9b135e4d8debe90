"""Every exception class of ``christoffel.errors`` is raised in the package.

An error type that no ``raise`` statement names is dead: callers would
catch or document a failure that cannot happen.  The source is read with
``ast``, so a name in a docstring, a comment or an ``except`` clause does
not count as a raise.
"""

import ast
from pathlib import Path

import christoffel

PACKAGE = Path(christoffel.__file__).parent


def raised_names(tree):
    """Names of the classes that ``raise X`` or ``raise X(...)`` names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, (ast.Name, ast.Attribute)):
                names.add(exc.id if isinstance(exc, ast.Name) else exc.attr)
    return names


def test_every_error_type_is_raised():
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    defined = [n.name for n in errors.body if isinstance(n, ast.ClassDef)]
    assert "ChristoffelError" in defined
    raised = set().union(*(raised_names(ast.parse(p.read_text(encoding="utf-8")))
                           for p in PACKAGE.glob("*.py")))
    assert [name for name in defined if name not in raised] == []
