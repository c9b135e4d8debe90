"""Tests of the benchmark itself, at the tiny grid sizes.

Run from the repository root:

    python -m pytest -q bench/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "bench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from christoffel import cli, convexity, harmonics, kernels, sphere  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.fixture
def workdir():
    path = os.path.join(ROOT, ".bench_work", f"tests-{os.getpid()}-{time.monotonic_ns()}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(path))
    except OSError:  # still in use
        pass


def _bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    out = _bench(["--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--tiny"])
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in spec}
    for m in result["metrics"].values():
        assert math.isfinite(m["value"])
        if not trace:
            assert m["value"] > 0


def _in_process(op):
    t0 = time.perf_counter()
    code = cli.main(op.argv)
    return {"code": code, "seconds": time.perf_counter() - t0, "error": None, "probe": None}


def _op_of_class(factory, kind, cls):
    return next(op for op in (factory.make(kind) for _ in range(50))
                if op.expect.get("class") == cls)


def _flip_verdicts(op):
    with open(op.report, encoding="utf-8") as fh:
        report = json.load(fh)
    for crit in report["criteria"].values():
        crit["verdict"] = {"holds": "fails", "fails": "holds"}.get(crit["verdict"], "holds")
    with open(op.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def _drop_a_vertex(op):
    path = op.argv[op.argv.index("--obj") + 1]
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    lines.remove(next(line for line in lines if line.startswith("v ")))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


@pytest.mark.parametrize("kind, cls, corrupt", [
    ("check", "ellipsoid", _flip_verdicts),
    ("reconstruct", "ellipsoid", _drop_a_vertex),
])
def test_corrupted_output_counts_as_failed(workdir, kind, cls, corrupt):
    workload = "check" if kind == "check" else "scale"
    op = _op_of_class(workloads.OpFactory(workload, 5, workdir, tiny=True), kind, cls)
    tally = run.Tally()
    tally.record(op, _in_process(op), traced=False)
    assert (tally.attempted, tally.failed) == (1, 0), tally.problems
    corrupt(op)
    tally.record(op, {"code": 0, "seconds": 1.0, "error": None, "probe": None}, traced=False)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_corrupted_run_has_every_operation_failed(workdir):
    def corrupting(op, traced):
        reply = _in_process(op)
        _flip_verdicts(op)
        return reply

    factory = workloads.OpFactory("check", 2, workdir, tiny=True)
    tally = run.run_loop(factory, corrupting, 0.5, trace=False)
    assert tally.attempted >= 1 and tally.failed == tally.attempted


def test_oracle_rejects_wrong_exit_code_and_negative_lp_solution(workdir):
    op = workloads.OpFactory("cold", 1, workdir, tiny=True).make("cold_gamma")
    assert oracles.verify(op, _in_process(op)["code"]) == []
    assert oracles.verify(op, 1) != []
    lp_op = workloads.OpFactory("scale", 1, workdir).make("lp")
    lp = {"converged": True, "residual_inf": 1e-10, "p": lp_op.expect["p"],
          "lemma41": {"holds": True}, "lambda": None}
    report = {"error": None, "lp": lp}
    with open(lp_op.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    assert oracles.verify(lp_op, 0, {"u_min": 0.5}) == []
    assert oracles.verify(lp_op, 0, {"u_min": -0.5}) != []


def test_same_seed_same_inputs(workdir):
    def first_ops(sub):
        path = os.path.join(workdir, sub)
        os.makedirs(path)
        gen = workloads.OpFactory("check", 9, path, tiny=True).cycles()
        ops = [next(gen) for _ in range(6)]
        files = [open(p, encoding="utf-8").read() for op in ops for p in op.inputs]
        return [[a.replace(path, "") for a in op.argv] for op in ops], files

    assert first_ops("a") == first_ops("b")


def test_generated_grid_matches_the_program():
    _, _, xyz = workloads.grid_nodes(12)
    assert (xyz == sphere.make_grid(12).nodes).all()


def test_tracer_wraps_direct_imports_and_restores_them():
    originals = (convexity.tangent_bases, cli.make_grid, harmonics.analyze)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert convexity.tangent_bases is sphere.tangent_bases
        assert convexity.tangent_bases is not originals[0]
        assert "omega" in vars(kernels.DEFAULT_TABLE)
        sphere.make_grid(6)
        assert [s[0] for s in tracer.spans] == ["sphere.make_grid"]
    finally:
        tracer.uninstall()
    assert (convexity.tangent_bases, cli.make_grid, harmonics.analyze) == originals
    assert "omega" not in vars(kernels.DEFAULT_TABLE)


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None], ["c", 2.0, 3.0, 1, None]]
    assert dict(tracing.self_times(spans)) == {"a": 7.0, "b": 2.0, "c": 1.0}


def test_fails_without_the_program(workdir):
    bare = os.path.join(workdir, "bare")
    shutil.copytree(os.path.join(ROOT, "bench"), os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    out = _bench(["--workload", "check", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
