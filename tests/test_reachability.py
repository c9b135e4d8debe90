"""Every function and public method of the package is reached by a command.

A fixed set of CLI commands runs in process under a call profiler
(``sys.setprofile``): every subcommand, a ``file:`` input, a malformed one,
``--project``, an orthogonality error and a failing ``lp``.  A module-level
function, public or private, or a public method defined in
``src/christoffel`` that none of them calls serves only the tests, and
belongs in the tests as an oracle, unless ALLOWLIST keeps it, naming the
ROADMAP item that holds it.  An allowlist entry that a command now calls,
or that no longer exists, is stale.
"""

import importlib
import inspect
import json
import sys
from functools import cached_property
from pathlib import Path

import pytest

import christoffel
from christoffel import cli, convexity, harmonics, kernels, lp, sphere

from conftest import cli_commands, clear_program_caches

MODULES = sorted(p.stem for p in Path(christoffel.__file__).parent.glob("*.py")
                 if p.stem != "__init__")

# name -> the ROADMAP item that holds it in src/
ALLOWLIST = {
    # item 1: bench/tracing.py wraps the table's methods per instance
    # (kernels.DEFAULT_TABLE), until the table moves to the tests
    "kernels.ClosedFormKernelTable.omega": "item 1",
    "kernels.ClosedFormKernelTable.hat_A": "item 1",
    "kernels.ClosedFormKernelTable.hat_B": "item 1",
    # item 1: bench/worker.py wraps lp.solve_lp_eigen by name
    "lp.solve_lp_eigen": "item 1",
    # item 1: bench/tests reads the binding convexity.tangent_bases
    "sphere.tangent_bases": "item 1",
}


def guarded_callables():
    """Code object -> ``module.name`` or ``module.Class.name`` of every
    module-level function, public or private (through a ``functools``
    cache), and every public method, property or cached property of a
    public class, defined in the package."""
    out = {}
    for short in MODULES:
        mod = importlib.import_module(f"christoffel.{short}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(inspect.unwrap(obj)):
                out[inspect.unwrap(obj).__code__] = f"{short}.{name}"
            elif inspect.isclass(obj) and not name.startswith("_"):
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    elif isinstance(member, cached_property):
                        member = member.func
                    if inspect.isfunction(member):
                        out[member.__code__] = f"{short}.{name}.{attr}"
    return out


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Code objects called by the commands, and each command's report.
    The caches start empty, so no call is skipped for a table that an
    earlier test built."""
    tmp = tmp_path_factory.mktemp("reach")
    clear_program_caches()
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    reports = {}
    for k, (argv, code, error) in enumerate(cli_commands(tmp)):
        path = tmp / f"report{k}.json"
        sys.setprofile(profile)
        try:
            got = cli.main(argv + ["--report", str(path)])
        finally:
            sys.setprofile(None)
        report = json.loads(path.read_text())
        assert got == code, argv
        assert (report["error"] or {}).get("type") == error, argv
        reports.setdefault(argv[0], report)
    return seen, reports


def unreached(seen):
    return sorted(name for code, name in guarded_callables().items()
                  if code not in seen and name not in ALLOWLIST)


def test_every_callable_is_reached(traced):
    seen, _ = traced
    assert unreached(seen) == []


def test_planted_private_helper_is_caught(traced, monkeypatch):
    # a module-level private helper that only a test calls
    def _planted(x):
        return 2.0 * x

    _planted.__module__ = harmonics.__name__
    monkeypatch.setattr(harmonics, "_planted", _planted, raising=False)
    assert harmonics._planted(1.0) == 2.0
    seen, _ = traced
    assert unreached(seen) == ["harmonics._planted"]


def test_allowlist_is_not_stale(traced):
    seen, _ = traced
    callables = guarded_callables()
    names = set(callables.values())
    reached = {name for code, name in callables.items() if code in seen}
    assert sorted(set(ALLOWLIST) - names) == []
    assert sorted(set(ALLOWLIST) & reached) == []


def test_bench_bindings(traced):
    # tier-1 runs only tests/: these are the names bench/ reads, with the
    # identity it reads them by
    _, reports = traced
    assert convexity.tangent_bases is sphere.tangent_bases
    assert callable(lp.solve_lp_eigen)
    assert isinstance(kernels.DEFAULT_TABLE, kernels.ClosedFormKernelTable)
    for name in ("omega", "hat_A", "hat_B"):
        assert callable(getattr(kernels.DEFAULT_TABLE, name))
    # the bench check oracle reads the kernel_equivalence block
    assert reports["check"]["kernel_equivalence"]["max_abs_radial_minus_closed"] < 1e-8
