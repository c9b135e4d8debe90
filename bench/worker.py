"""Child process that runs `christoffel` CLI commands in-process.

Protocol (one JSON object per line): the worker imports `christoffel.cli`
and writes {"ready": ...}; then for every line {"argv": [...], "trace": 0|1}
on stdin it runs `cli.main(argv)` and answers {"code", "seconds", "error",
"probe", "layers"}.  It exits when stdin closes.  Anything the program
prints goes to stderr, so stdout carries only the protocol.

Before every command the worker empties the program's `functools` caches
(the Legendre tables, the design matrix, the sympy kernels), so that each
command does the work it does as a fresh `christoffel` process, apart from
import: repeated commands in one worker then cost the same as the first.

Run it from `run.py`, which sets PYTHONPATH to the checkout's `src` and caps
the BLAS threads.
"""

import functools
import json
import os
import sys
import time

from christoffel import cli, lp  # the timed set-up ends here

import tracing


def _capture_lp(probe):
    """Record min u of every L_p solution: the report does not carry u."""
    for name in ("solve_lp", "solve_lp_eigen"):
        solver = getattr(lp, name)

        # wraps() keeps the module and name, so the tracer still sees lp.<name>
        @functools.wraps(solver)
        def captured(*args, _solver=solver, **kwargs):
            sol = _solver(*args, **kwargs)
            probe["u_min"] = float(sol.u.values.min())
            return sol

        setattr(lp, name, captured)


def program_caches():
    return [obj for name, mod in list(sys.modules.items())
            if name.startswith("christoffel.")
            for obj in vars(mod).values()
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == name]


def run_one(argv, tracer, probe, caches):
    probe.clear()
    for cache in caches:
        cache.cache_clear()
    error = None
    if tracer is not None:
        tracer.reset()
        tracer.install()
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # any crash counts as one failed operation
        code, error = 1, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracing.layer_metrics(tracer.spans)
    return {"code": code, "seconds": seconds, "error": error,
            "probe": dict(probe) or None, "layers": layers}


def main():
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    proto.write(json.dumps({"ready": True, "module": cli.__file__}) + "\n")
    proto.flush()
    probe = {}
    _capture_lp(probe)
    caches = program_caches()
    tracer = tracing.Tracer()
    for line in sys.stdin:
        req = json.loads(line)
        reply = run_one(req["argv"], tracer if req["trace"] else None, probe, caches)
        proto.write(json.dumps(reply) + "\n")
        proto.flush()


if __name__ == "__main__":
    main()
