"""No module-level state of the package outlives a command.

Every table the program keeps between calls is a ``functools`` cache: the
benchmark worker and :func:`conftest.clear_program_caches` empty exactly
those (``cache_clear``), so that each command pays what a fresh process
pays.  A module-level dict, list, set or writeable array that a command
fills, or a global it rebinds, would survive that.  These tests snapshot
every global of every ``christoffel`` module, run every subcommand at a
small size, and require each global to be the same object with the same
contents.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import christoffel
from christoffel import cli, convexity, harmonics

from conftest import clear_program_caches, cli_commands


def _contents(obj):
    """(key, value) pairs of what a command could change in place: the
    items of a dict, list or set, the bytes of a writeable array, the
    attributes of an instance of a package class.  Keys compare by value,
    values by identity, so an item that is replaced is seen even if its id
    is reused."""
    if isinstance(obj, dict):
        return list(obj.items())
    if isinstance(obj, (list, set)):
        return list(enumerate(obj))
    if isinstance(obj, np.ndarray):
        return [((obj.shape, obj.dtype.str, obj.tobytes()), None)] if obj.flags.writeable else []
    if type(obj).__module__.startswith("christoffel.") and hasattr(obj, "__dict__"):
        return list(vars(obj).items())
    return []


def module_state():
    """``module.name`` -> (object, contents) of every global of the package
    but the dunder names."""
    return {f"{name}.{attr}": (obj, _contents(obj))
            for name, mod in list(sys.modules.items())
            if name == "christoffel" or name.startswith("christoffel.")
            for attr, obj in vars(mod).items() if not attr.startswith("__")}


def _same(a, b):
    return len(a) == len(b) and all(ka == kb and va is vb for (ka, va), (kb, vb) in zip(a, b))


def changed_globals(before, after):
    """Names added, removed, rebound or changed in place between snapshots."""
    return sorted(name for name in before.keys() | after.keys()
                  if name not in before or name not in after
                  or before[name][0] is not after[name][0]
                  or not _same(before[name][1], after[name][1]))


def run_commands(tmp):
    """Every command from empty caches, as the benchmark worker runs it."""
    for k, (argv, code, _) in enumerate(cli_commands(tmp)):
        clear_program_caches()
        assert cli.main(argv + ["--report", str(tmp / f"report{k}.json")]) == code, argv


def test_commands_leave_module_state_unchanged(tmp_path):
    before = module_state()
    run_commands(tmp_path)
    assert changed_globals(before, module_state()) == []


def test_planted_memo_is_caught(tmp_path, monkeypatch):
    # a module-level dict that memoizes the Legendre blocks by grid size,
    # beside the grid's own slot, outlives every grid and every cache_clear
    memo = {}
    real = harmonics._grid_blocks
    monkeypatch.setattr(harmonics, "_TABLE_MEMO", memo, raising=False)
    monkeypatch.setattr(harmonics, "_grid_blocks",
                        lambda grid, L_max: memo.setdefault((grid.L, L_max), real(grid, L_max)))
    before = module_state()
    run_commands(tmp_path)
    assert memo
    assert changed_globals(before, module_state()) == ["christoffel.harmonics._TABLE_MEMO"]


def test_rebound_global_and_array_write_are_caught(monkeypatch):
    before = module_state()
    monkeypatch.setattr(harmonics, "DEFAULT_L_MAX", harmonics.DEFAULT_L_MAX + 1)
    rows = convexity._SYM_ROWS
    rows[0] += 1
    try:
        assert changed_globals(before, module_state()) == [
            "christoffel.convexity._SYM_ROWS", "christoffel.harmonics.DEFAULT_L_MAX"]
    finally:
        rows[0] -= 1


def test_import_fills_no_cache():
    # fixed work belongs in the commands that need it, not in import, where
    # every process pays it: a fresh ``import christoffel.cli`` leaves
    # every functools cache of the package empty
    probe = (
        "import json, sys\n"
        "import christoffel.cli\n"
        "print(json.dumps({f'{name}.{attr}': obj.cache_info().currsize\n"
        "    for name, mod in list(sys.modules.items()) if name.startswith('christoffel.')\n"
        "    for attr, obj in vars(mod).items()\n"
        "    if hasattr(obj, 'cache_clear') and getattr(obj, '__module__', None) == name}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(christoffel.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    sizes = json.loads(out)
    assert {"christoffel.sphere._polar_rule", "christoffel.harmonics._coordinate_store"} <= set(sizes)
    assert {name: size for name, size in sizes.items() if size} == {}
