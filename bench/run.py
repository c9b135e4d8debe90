"""Benchmark of the `christoffel` CLI: one workload, one seed, one run.

    python3 bench/run.py --workload check|scale|cold --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports the program from `./src`
and writes scratch files under `./.bench_work`, which it removes again.
Each run is a closed loop of one client: commands of the workload (see
`workloads.py` for why each workload exists) are issued one after another
until the next one is predicted to end past `--seconds`.  `check` and
`scale` commands run in one fresh worker process; `cold` commands each run
as a fresh `python -m christoffel.cli` process.  Child processes get the
BLAS thread count capped at the number of usable CPUs.  Every command's
output is checked by an oracle (`oracles.py`); a raise, exit code 1 or a
failed oracle counts as a failed operation.

With `--trace 0` the result holds the end-to-end metrics; with `--trace 1`
every command runs twice, untraced and traced (alternating which goes first),
and the result holds the per-layer metrics of `tracing.py`, normalised to one
cycle (one command of each kind of the workload), plus the tracing overhead.
The last line of stdout is the JSON result; the lines before it give the
environment fingerprint and each command kind's median under its own name.
`--tiny` shrinks every grid for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SPAWNS = 5
# every child is killed after this long, so a hung command cannot keep the
# run from ending within its three-minute budget
HARD_LIMIT_S = 170.0

END_TO_END = {"setup_s": "s", "cycle_s": "s", "cmd_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark itself could not run (not a failed operation)."""


def usable_cpus():
    return len(os.sched_getaffinity(0))


class Children:
    """Every process the run starts; all are killed at the hard limit, after
    which no new one may start."""

    def __init__(self, root, cwd):
        self.cwd = cwd
        self.procs = []
        self.expired = False
        threads = str(usable_cpus())
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS=threads,
                        OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        self.env.pop("CHRISTOFFEL_THREADS", None)
        self.src = os.path.join(root, "src", "christoffel")
        self.log = open(os.path.join(cwd, "children.log"), "w", encoding="utf-8")
        self._timer = threading.Timer(HARD_LIMIT_S, self.kill_all)
        self._timer.daemon = True
        self._timer.start()

    def spawn(self, args, **kw):
        if self.expired:
            raise BenchError(f"run exceeded {HARD_LIMIT_S} s")
        kw.setdefault("stderr", self.log)
        proc = subprocess.Popen([sys.executable, *args], cwd=self.cwd, env=self.env, **kw)
        self.procs.append(proc)
        return proc

    def worker(self, importtime_to=None):
        """Start a worker; returns (process, seconds until christoffel.cli
        was imported, as seen from here).  With `importtime_to`, an open
        file, the worker runs under `-X importtime` and writes its report
        there."""
        flags = ["-X", "importtime"] if importtime_to else []
        t0 = time.perf_counter()
        proc = self.spawn([*flags, os.path.join(BENCH_DIR, "worker.py")],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=importtime_to or self.log, text=True)
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        if not line:
            raise BenchError("worker exited before importing christoffel.cli")
        module = json.loads(line)["module"]
        if not os.path.abspath(module).startswith(self.src + os.sep):
            raise BenchError(f"christoffel imported from {module}, not {self.src}")
        return proc, seconds

    def kill_all(self):
        self.expired = True
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()

    def close(self):
        self._timer.cancel()
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
        for proc in self.procs:
            proc.wait()
        self.log.close()


def fingerprint(seed):
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": usable_cpus(),  # the cap set for every child
        "nproc": usable_cpus(),
        "seed": seed,
    }


def measure_setup(children, trace):
    """Median spawn-to-imported time over SETUP_SPAWNS fresh workers; with
    tracing, also the median `-X importtime` figure of each module."""
    spawn_s, imports = [], defaultdict(list)
    for i in range(SETUP_SPAWNS):
        with open(os.path.join(children.cwd, f"importtime{i}.txt"), "w+",
                  encoding="utf-8") as log:
            proc, seconds = children.worker(importtime_to=log if trace else None)
            proc.communicate(input="")
            spawn_s.append(seconds)
            log.seek(0)
            for name, value in tracing.parse_importtime(log.read()).items():
                imports[name].append(value)
    return statistics.median(spawn_s), {k: statistics.median(v) for k, v in imports.items()}


class WarmExecutor:
    """Runs commands in one long-lived worker process."""

    def __init__(self, children):
        self.proc, _ = children.worker()

    def __call__(self, op, trace):
        self.proc.stdin.write(json.dumps({"argv": op.argv, "trace": int(trace)}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("worker died")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


class ColdExecutor:
    """Runs each command as a fresh process: `python -m christoffel.cli`
    untraced, a one-shot worker when traced.  Time is spawn to exit."""

    def __init__(self, children):
        self.children = children

    def __call__(self, op, trace):
        t0 = time.perf_counter()
        if trace:
            proc, _ = self.children.worker()
            out, _ = proc.communicate(json.dumps({"argv": op.argv, "trace": 1}) + "\n")
            if not out:
                raise BenchError("worker died")
            reply = json.loads(out)
        else:
            proc = self.children.spawn(["-m", "christoffel.cli", *op.argv],
                                       stdout=subprocess.DEVNULL)
            reply = {"code": proc.wait(), "error": None, "probe": None, "layers": None}
        reply["seconds"] = time.perf_counter() - t0
        return reply

    def close(self):
        pass


class Tally:
    """Per-kind samples and failure counts of one run."""

    def __init__(self):
        self.seconds = defaultdict(list)     # untraced wall time per command
        self.traced = defaultdict(list)      # traced wall time per command
        self.layers = defaultdict(list)      # per-command layer metrics
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, op, reply, traced):
        self.attempted += 1
        problems = ([reply["error"]] if reply.get("error")
                    else oracles.verify(op, reply["code"], reply.get("probe")))
        if problems:
            self.failed += 1
            self.problems.append((op.kind, op.argv, problems))
        (self.traced if traced else self.seconds)[op.kind].append(reply["seconds"])
        if traced and reply.get("layers"):
            self.layers[op.kind].append(reply["layers"])

    def predicted(self, kind, trace):
        if not self.seconds[kind]:
            return 0.0
        s = statistics.median(self.seconds[kind])
        return s + statistics.median(self.traced[kind]) if trace else s


def run_loop(factory, execute, seconds, trace):
    """Closed loop: issue the workload's commands one after another until
    every kind has been run and the next command of each kind is predicted
    to end past the deadline."""
    tally = Tally()
    kinds = set(workloads.KINDS[factory.workload])
    stopped = set()
    t0 = time.perf_counter()
    for op in factory.cycles():
        if stopped == kinds:
            break
        if op.kind in stopped:
            op.cleanup()
            continue
        elapsed = time.perf_counter() - t0
        if tally.seconds[op.kind] and elapsed + tally.predicted(op.kind, trace) > seconds:
            stopped.add(op.kind)
            op.cleanup()
            continue
        order = [False]
        if trace:
            # alternate which of the two runs of a command goes first
            order = [False, True] if len(tally.traced[op.kind]) % 2 == 0 else [True, False]
        for traced in order:
            op.clear_outputs()
            tally.record(op, execute(op, traced), traced)
        op.cleanup()
    return tally


def _median_per_kind(samples):
    return {k: statistics.median(v) for k, v in samples.items() if v}


def end_to_end(tally, setup_s):
    med = _median_per_kind(tally.seconds)
    return {
        "setup_s": setup_s,
        "cycle_s": sum(med.values()),
        "cmd_s": math.exp(statistics.fmean(math.log(v) for v in med.values())),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


def per_layer(tally, imports):
    """Layer metrics per cycle: the mean over traced commands of each kind,
    summed over kinds, plus import times and the tracing overhead."""
    out = dict.fromkeys(tracing.metric_names(), 0.0)
    for per_op in tally.layers.values():
        for name in per_op[0]:
            out[name] += statistics.fmean(m[name] for m in per_op)
    out.update(imports)
    untraced = sum(_median_per_kind(tally.seconds).values())
    traced = sum(_median_per_kind(tally.traced).values())
    out["trace.cycle_s"] = untraced
    out["trace.traced_cycle_s"] = traced
    out["trace.overhead_s"] = traced - untraced
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.KINDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny grids (self-tests only)")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "christoffel", "cli.py")):
        print("bench: run from the root of a christoffel checkout (no src/christoffel)",
              file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    children = Children(root, workdir)
    try:
        env = fingerprint(args.seed)
        setup_s, imports = measure_setup(children, bool(args.trace))
        factory = workloads.OpFactory(args.workload, args.seed, workdir, tiny=args.tiny)
        executor = (ColdExecutor if args.workload == "cold" else WarmExecutor)(children)
        tally = run_loop(factory, executor, args.seconds, bool(args.trace))
        executor.close()
        if args.trace:
            values, units = per_layer(tally, imports), tracing.metric_names()
        else:
            values, units = end_to_end(tally, setup_s), END_TO_END
    except (BenchError, OSError, ValueError) as exc:
        children.close()
        with open(children.log.name, encoding="utf-8") as fh:
            sys.stderr.write(fh.read()[-4000:])
        print(f"bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        children.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run still uses it
            pass

    print("# env " + json.dumps(env))
    print(f"# workload {args.workload}: attempted {tally.attempted}, failed {tally.failed}, "
          f"failed_frac {tally.failed / max(tally.attempted, 1):.4f}")
    for kind, med in sorted(_median_per_kind(tally.seconds).items()):
        print(f"# {kind}_s {med:.4f} s (median of {len(tally.seconds[kind])})")
    for kind, argv_, problems in tally.problems:
        print(f"# FAILED {kind} {' '.join(argv_)}: {'; '.join(problems)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
