"""Every Sphinx cross-reference in the package's source resolves.

A ``:func:``, ``:attr:``, ``:class:``, ``:meth:`` or ``:mod:`` target is
looked up in its own module's namespace, then as a name under the
``christoffel`` package, so a reference left behind by a move or a rename
fails here.
"""

import importlib
import re
from pathlib import Path

import christoffel

SOURCES = sorted(Path(christoffel.__file__).parent.glob("*.py"))
ROLE = re.compile(r":(?:func|attr|class|meth|mod):`~?([^`]+)`")


def lookup(dotted: str) -> bool:
    """Whether ``dotted`` names a module of the package or an attribute
    path below one."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for part in parts[i:]:
            if not hasattr(obj, part):
                return False
            obj = getattr(obj, part)
        return True
    return False


def resolves(module: str, target: str) -> bool:
    return any(lookup(name) for name in (f"{module}.{target}", target, f"christoffel.{target}")
               if name.startswith("christoffel."))


def test_every_cross_reference_resolves():
    refs = [(path.stem, target) for path in SOURCES
            for target in ROLE.findall(path.read_text(encoding="utf-8"))]
    assert len(refs) > 50
    unresolved = [f"{stem}: {target}" for stem, target in refs
                  if not resolves(f"christoffel.{stem}", target)]
    assert unresolved == []
