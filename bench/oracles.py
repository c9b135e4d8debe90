"""Correctness oracles: one per command kind.

Each oracle looks at what one command left behind (exit code, JSON report,
output files, and for in-process commands the minimum of the L_p solution
the worker saw) and returns a list of problems.  An empty list means the
command's output is correct; anything else makes the operation count as
failed, exactly like a raise or exit code 1.
"""

from __future__ import annotations

import json
import math

import numpy as np

# rounding-level limit for the kernel-equivalence deltas (quadrature at
# 1e-10 tolerance against the closed forms)
KERNEL_DELTA_TOL = 1e-8
# Monte-Carlo estimates must lie within this many standard errors
Z_LIMIT = 6.0


def band_tolerance(L_max: int) -> float:
    """Allowed gap between the band-limited solution of an ellipsoid and its
    exact support function (axes in [0.8, 1.6]).  The truncation error decays
    geometrically with the band limit (measured 2e-4 at Lmax=8, 9e-11 at 32);
    the floor keeps a margin above rounding."""
    return max(0.1 * 10.0 ** (-L_max / 4.0), 1e-9)


def load_report(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _exit_code_of(verdicts) -> int:
    if "fails" in verdicts:
        return 2
    if "inconclusive" in verdicts:
        return 3
    return 0


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0], np.array([[float(v) for v in row.split(",")] for row in lines[1:]])


def _support(axes, xyz):
    return np.sqrt(xyz**2 @ np.square(axes))


def _solution_problems(op, report):
    """Shared by solve and reconstruct: residual relative to max|f|."""
    res = report.get("solver_residual_inf")
    if res is None or not res <= 1e-9 * op.expect["f_scale"]:
        return [f"solver residual {res} not small against max|f|"]
    return []


def check_solve(op, code, report, probe=None):
    problems = _solution_problems(op, report)
    N = 2 * op.expect["L"] ** 2
    header, rows = _read_csv(op.argv[op.argv.index("--out") + 1])
    if header != "theta,phi,value" or rows.shape != (N, 3):
        return problems + [f"u CSV has shape {rows.shape}, expected ({N}, 3)"]
    if op.expect["class"] == "ellipsoid":
        th, ph = rows[:, 0], rows[:, 1]
        xyz = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=1)
        gap = float(np.max(np.abs(rows[:, 2] - _support(op.expect["axes"], xyz))))
        if not gap <= band_tolerance(op.expect["Lmax"]):
            problems.append(f"u differs from the ellipsoid support function by {gap:.3e}")
    return problems


def check_reconstruct(op, code, report, probe=None):
    problems = _solution_problems(op, report)
    L = op.expect["L"]
    N = 2 * L * L
    mesh = report.get("mesh", {})
    if mesh.get("vertices") != N + 2 or mesh.get("faces") != 4 * L * L:
        problems.append(f"report mesh {mesh} does not match the {L}x{2 * L} grid")
    verts, normals, faces = [], 0, 0
    with open(op.argv[op.argv.index("--obj") + 1], encoding="utf-8") as fh:
        for line in fh:
            tag = line[:2]
            if tag == "v ":
                verts.append([float(v) for v in line.split()[1:]])
            elif tag == "vn":
                normals += 1
            elif tag == "f ":
                faces += 1
    if len(verts) != N + 2 or normals != N + 2 or faces != mesh.get("faces"):
        problems.append(f"OBJ has {len(verts)} vertices, {normals} normals, "
                        f"{faces} faces; expected {N + 2} vertices")
    elif op.expect["class"] == "ellipsoid":
        # the two pole vertices are ring means, not surface points
        V = np.asarray(verts[:N])
        gap = float(np.max(np.abs(V**2 @ (1.0 / np.square(op.expect["axes"])) - 1.0)))
        if not gap <= 2.0 * band_tolerance(op.expect["Lmax"]):
            problems.append(f"OBJ vertices leave the ellipsoid surface by {gap:.3e}")
    return problems


def check_check(op, code, report, probe=None):
    problems = []
    hmin = report["hessian_min"]["value"]
    verdicts = [c["verdict"] for c in report["criteria"].values()]
    for name, crit in report["criteria"].items():
        v = crit["verdict"]
        if v not in ("holds", "fails", "inconclusive"):
            problems.append(f"{name}: unknown verdict {v!r}")
        if (v == "holds" and not hmin > 0) or (v == "fails" and not hmin < 0):
            problems.append(f"{name} {v} contradicts hessian_min {hmin:.3e}")
    if code != _exit_code_of(verdicts):
        problems.append(f"exit code {code} does not match verdicts {verdicts}")
    # bumps are not convex: some criterion must fail and none may hold;
    # ellipsoids and the random fields are convex: every criterion holds
    if op.expect["class"] == "bump":
        if "fails" not in verdicts or "holds" in verdicts:
            problems.append(f"non-convex input: verdicts {verdicts}")
    elif any(v != "holds" for v in verdicts):
        problems.append(f"convex input: verdicts {verdicts}")
    problems += _kernel_deltas(report)
    return problems


def _kernel_deltas(report):
    eq = report.get("kernel_equivalence", {})
    deltas = [eq.get("max_abs_radial_minus_closed"), eq.get("max_abs_closed_minus_firey")]
    if not all(d is not None and d <= KERNEL_DELTA_TOL for d in deltas):
        return [f"kernel-equivalence deltas {deltas} above {KERNEL_DELTA_TOL}"]
    return []


def check_lp(op, code, report, probe=None):
    lp = report.get("lp", {})
    tol = 1e-8
    problems = []
    if not lp.get("converged"):
        problems.append("L_p solver did not converge")
    if not (lp.get("residual_inf") is not None and lp["residual_inf"] <= tol):
        problems.append(f"L_p residual {lp.get('residual_inf')} above tol {tol}")
    if not lp.get("lemma41", {}).get("holds"):
        problems.append("Lemma 4.1 gradient bound violated")
    if lp.get("p") != op.expect["p"]:
        problems.append(f"report p {lp.get('p')} differs from requested {op.expect['p']}")
    if op.expect["p"] == 2.0 and not (lp.get("lambda") or 0.0) > 0.0:
        problems.append(f"eigenvalue {lp.get('lambda')} not positive")
    # u itself is not in the report; in-process runs see the solution
    if probe is not None and not probe.get("u_min", 0.0) > 0.0:
        problems.append(f"L_p solution not positive: min u = {probe.get('u_min')}")
    return problems


def check_kernels(op, code, report, probe=None):
    header, rows = _read_csv(op.argv[op.argv.index("--out") + 1])
    problems = []
    if header.split(",") != ["s", "omega_radial", "omega_closed", "firey_theta",
                             "berg_g2", "berg_g3", "berg_g4"] or rows.shape != (39, 7):
        problems.append(f"kernel table has shape {rows.shape}, expected (39, 7)")
    elif not np.all(np.isfinite(rows)):
        problems.append("kernel table has non-finite entries")
    else:
        radial, closed = rows[:, 1], rows[:, 2]
        if np.max(np.abs(radial - closed)) > KERNEL_DELTA_TOL * max(1.0, np.max(np.abs(closed))):
            problems.append("omega_radial and omega_closed columns disagree")
    return problems + _kernel_deltas(report)


def check_gamma(op, code, report, probe=None):
    g = report.get("gamma", {})
    value = g.get("value")
    if not (isinstance(value, float) and math.isfinite(value) and value > 0.0):
        return [f"gamma value {value} not a positive number"]
    problems = []
    if not g.get("quadrature_error_estimate", 1.0) <= 1e-6 * value:
        problems.append(f"quadrature error estimate {g.get('quadrature_error_estimate')} too large")
    if not abs(g.get("z_score", math.inf)) <= Z_LIMIT:
        problems.append(f"Monte-Carlo z-score {g.get('z_score')} beyond {Z_LIMIT}")
    rp = g.get("monte_carlo_random_pole", {})
    if not abs(rp.get("estimate", math.inf) - value) <= Z_LIMIT * rp.get("standard_error", 0.0):
        problems.append("random-pole Monte-Carlo estimate disagrees with gamma")
    return problems


ORACLES = {
    "check": check_check,
    "solve": check_solve,
    "reconstruct": check_reconstruct,
    "lp": check_lp,
    "kernels": check_kernels,
    "gamma": check_gamma,
}


def expected_code(op) -> int:
    """Exit code the CLI must return: 2 for `check` on a non-convex bump."""
    if op.argv[0] == "check":
        return 2 if op.expect["class"] == "bump" else 0
    return 0


def verify(op, code, probe=None):
    """All problems with one finished command; [] when it is correct."""
    cmd = op.argv[0]
    if code != expected_code(op):
        return [f"exit code {code}, expected {expected_code(op)}"]
    report = load_report(op.report)
    if report is None or report.get("error") is not None:
        return [f"no usable report: {None if report is None else report.get('error')}"]
    try:
        return ORACLES[cmd](op, code, report, probe)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"output unreadable: {type(exc).__name__}: {exc}"]
