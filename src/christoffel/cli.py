"""Command-line surface: subcommands, file formats, and the JSON report.

Commands
--------
solve        solve (Laplacian + 2) u = f and write u as CSV
check        run convexity criteria and sufficient-condition checkers
lp           solve the L_p problem (p = 2 routes to the eigensolver)
gamma        compute gamma_{n, alpha} with its Monte-Carlo cross-check
kernels      dump kernel tables as CSV
reconstruct  solve and export the body surface as a Wavefront OBJ

Field sources: ``file:<path>`` (CSV with header theta,phi,value, rows in
theta-major grid order) or ``family:<name>:<params>`` with families
constant:c=..., ellipsoid:a=..,b=..,c=.. (curvature data of the ellipsoid),
harmonic:l=..,m=..,eps=..,base=...

Exit codes: 0 success/holds, 2 a requested criterion fails, 3 inconclusive,
1 error.  Errors include command-line usage errors (unknown flags, bad
values), which print the usage and write no report; every other error is
reported as {"type": ..., "message": ...} in the report's ``error`` field.
Reports are deterministic for a fixed config and seed (the timings block is
excluded from that contract).  A reader that closes stdout early (``| head``)
ends the command with exit code 1 and no traceback.

Output files are byte-deterministic too, every float written as its
shortest round-trip ``repr``.  The u CSV has one theta,phi,value row per
grid node in theta-major order.  The OBJ has v lines, vn lines in the same
order, then 1-based f lines in the order of :class:`body.SurfaceMesh`:
two per grid quad in (ring, azimuth) order, split along the shorter
diagonal with ties to the a-c one, then the (north, south) polar fan pairs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import body, convexity, harmonics, kernels, lp
from .errors import (
    ChristoffelError,
    GridMismatch,
    NotPositive,
    OrthogonalityViolation,
    ParseError,
)
from .sphere import make_grid


def _field_to_csv(field: harmonics.SphericalField) -> str:
    """theta,phi,value rows in theta-major grid order, formatted a ring at
    a time: each phi's repr is taken once for all rings, each theta's once
    for its ring."""
    grid = field.grid
    ring = "".join(f"%s,{ph!r},%%r\n" for ph in grid.phis.tolist())
    vals = field.values.reshape(grid.L, grid.azimuth_count).tolist()
    return "theta,phi,value\n" + "".join(
        ring % ((repr(th),) * grid.azimuth_count) % tuple(row)
        for th, row in zip(grid.thetas.tolist(), vals)
    )


def _repeated_floats(tokens) -> np.ndarray:
    """Parse a column of numbers that repeats few distinct strings, such as
    the grid's angles, converting each distinct string once."""
    parsed = {tok: float(tok) for tok in set(tokens)}
    return np.fromiter(map(parsed.__getitem__, tokens), float, count=len(tokens))


def _raise_first_bad_row(rows):
    """ParseError naming the first data row that is not three numbers."""
    for k, row in enumerate(rows):
        parts = row.split(",")
        if len(parts) != 3:
            raise ParseError("expected three comma-separated fields", line=k + 2)
        for part in parts:
            try:
                float(part)
            except ValueError as exc:
                raise ParseError(f"bad value {part!r}", line=k + 2) from exc
    raise ParseError("rows are not three numbers each")


def _field_from_csv(path: str, grid) -> harmonics.SphericalField:
    """Read a theta,phi,value CSV whose rows are the grid's nodes in order.

    Every row's angles must match its node's within 1e-9; the first row
    that does not raises GridMismatch naming its line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not lines or lines[0].strip().lower() != "theta,phi,value":
        raise ParseError("expected header 'theta,phi,value'", line=1)
    rows = lines[1:]
    if len(rows) != grid.node_count:
        raise GridMismatch(
            f"file has {len(rows)} rows, grid expects {grid.node_count}"
        )
    fields = ",".join(rows).split(",")
    try:
        if len(fields) != 3 * len(rows):
            raise ValueError("not three fields per row")
        values = np.fromiter(map(float, fields[2::3]), float, count=len(rows))
        thetas, phis = _repeated_floats(fields[0::3]), _repeated_floats(fields[1::3])
    except ValueError:
        _raise_first_bad_row(rows)
    want_th = np.repeat(grid.thetas, grid.azimuth_count)
    want_ph = np.tile(grid.phis, grid.L)
    bad = np.nonzero(~((np.abs(thetas - want_th) <= 1e-9) & (np.abs(phis - want_ph) <= 1e-9)))[0]
    if bad.size:
        k = int(bad[0])
        raise GridMismatch(
            f"line {k + 2}: (theta, phi) = ({float(thetas[k])!r}, {float(phis[k])!r}) "
            f"is not grid node {k} ({float(want_th[k])!r}, {float(want_ph[k])!r})"
        )
    return harmonics.SphericalField(grid=grid, values=values)


def _parse_params(spec: str):
    out = {}
    if spec:
        for item in spec.split(","):
            if "=" not in item:
                raise ParseError(f"malformed parameter {item!r}")
            key, val = item.split("=", 1)
            out[key.strip()] = float(val)
    return out


def parse_field_source(spec: str, grid, L_max: int):
    """Build a positive field from a CLI field source string.

    Returns (field with coefficients, truncation error of the band-limit
    re-analysis; zero for exactly band-limited families).  Every source
    raises BandLimitExceeded when the grid cannot resolve L_max.
    """
    harmonics.require_band_limit(grid, L_max)
    if spec.startswith("file:"):
        raw = _field_from_csv(spec[5:], grid)
        if np.min(raw.values) <= 0.0:
            raise NotPositive("input field must be strictly positive")
        return harmonics.bandlimit(raw, L_max)
    if not spec.startswith("family:"):
        raise ParseError(f"unknown field source {spec!r}")
    rest = spec[7:]
    name, _, params = rest.partition(":")
    kv = _parse_params(params)
    if name == "constant":
        c = kv.get("c", 2.0)
        if c <= 0:
            raise NotPositive("constant family needs c > 0")
        field = harmonics.field_from_function(
            grid, lambda p: np.full(len(p), float(c)), L_max
        )
        return field, 0.0
    if name == "ellipsoid":
        ell = body.Ellipsoid(kv.get("a", 1.0), kv.get("b", 1.0), kv.get("c", 1.0))
        u = body.support_function(ell, grid, L_max)
        field = body.forward_f(u)
        if np.min(field.values) <= 0.0:
            raise NotPositive("ellipsoid curvature data not positive on the grid")
        return field, 0.0
    if name == "harmonic":
        bump = body.HarmonicBump(
            l=int(kv.get("l", 2)), m=int(kv.get("m", 0)),
            eps=kv.get("eps", 0.1), base=kv.get("base", 2.0),
        )
        field = harmonics.synthesize(bump.coeffs(L_max), grid)
        if np.min(field.values) <= 0.0:
            raise NotPositive("harmonic family is not positive at this eps/base")
        return field, 0.0
    raise ParseError(f"unknown family {name!r}")


def _full_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False)


def _witness_json(witness):
    x, xi = witness
    return {"x": list(x.coords), "xi": list(xi.dir)}


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 1, the error code, not argparse's 2 ("fails")."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _make_parser():
    ap = _ArgumentParser(
        prog="christoffel",
        description="Christoffel problem toolkit: spectral solver, convexity "
        "criteria, kernels, L_p extension, and body reconstruction.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, summary, field=True, project=True):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--report", type=str, default=None, help="write JSON report here")
        if field:
            p.add_argument("--input", type=str, default="family:constant:c=2",
                           help="field source: file:<path> or family:<name>:<params>")
            p.add_argument("--L", type=int, default=harmonics.DEFAULT_GRID_L,
                           help="grid resolution")
            p.add_argument("--Lmax", type=int, default=harmonics.DEFAULT_L_MAX,
                           help="band limit")
            p.add_argument("--tol", type=float, default=1e-8)
            if project:
                p.add_argument("--project", action="store_true",
                               help="project out the degree-1 component instead of erroring")
        else:
            p.add_argument("--n", type=int, default=2, help="sphere dimension")
        return p

    p = command("solve", "solve the linear problem and write u")
    p.add_argument("--out", type=str, default=None, help="write u as CSV here")

    p = command("check", "convexity criteria and sufficient conditions")
    p.add_argument("--criteria", type=str, default="cr1,cr2")
    p.add_argument("--alpha", type=float, default=0.5)

    p = command("lp", "solve the L_p problem", project=False)
    p.add_argument("--p", type=float, default=4.0)

    p = command("gamma", "threshold constant gamma_{n, alpha}", field=False)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--mc-samples", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)

    p = command("kernels", "dump kernel tables as CSV", field=False)
    p.add_argument("--out", type=str, default=None, help="write the CSV here")

    p = command("reconstruct", "solve and export the body as OBJ")
    p.add_argument("--obj", type=str, default=None, help="write the mesh here")
    p.add_argument("--out", type=str, default=None, help="write u as CSV here")
    return ap


def _config_echo(args) -> dict:
    return dict(sorted(vars(args).items()))


def _criteria_names(spec: str) -> list:
    names = [name.strip().lower() for name in spec.split(",")]
    known = [c.value for c in convexity.Criterion]
    for name in names:
        if name not in known:
            raise ParseError(f"unknown criterion {name!r} (choose from {', '.join(known)})")
    return names


def _solve_pipeline(args, report):
    grid = make_grid(args.L)
    f, trunc = parse_field_source(args.input, grid, args.Lmax)
    defect = harmonics.orthogonality_defect(f)
    report["orthogonality_defect"] = list(defect)
    report["band_limit_truncation_error"] = trunc
    projected = 0.0
    if args.project:
        projected = harmonics.degree1_magnitude(harmonics.require_coeffs(f))
    u = harmonics.solve_christoffel(f, tol=args.tol, project=args.project)
    rhs = harmonics.project_out_linear(f) if args.project else f
    report["projected_degree1_magnitude"] = projected
    report["solver_residual_inf"] = harmonics.christoffel_residual(u, rhs)
    return grid, f, u


def _exit_code_from_verdicts(verdicts) -> int:
    if any(v == "fails" for v in verdicts):
        return 2
    if any(v == "inconclusive" for v in verdicts):
        return 3
    return 0


def run(args) -> tuple[dict, int]:
    """Execute one command; returns (report document, exit code)."""
    report = {"config": _config_echo(args), "error": None}
    timings = {}
    t_start = time.perf_counter()
    code = 0

    if args.command == "solve":
        _, f, u = _solve_pipeline(args, report)
        report["u_min"] = float(np.min(u.values))
        report["u_max"] = float(np.max(u.values))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(_field_to_csv(u))
            report["u_csv"] = args.out

    elif args.command == "check":
        names = _criteria_names(args.criteria)
        grid, f, u = _solve_pipeline(args, report)
        hmin, hwit = convexity.hessian_min(u)
        report["hessian_min"] = {"value": hmin, "witness": list(hwit.coords)}
        # T33 has the largest arrays of a check: run it before the shared
        # engine and its ring table exist, so their memory does not add up
        holds33, worst33 = convexity.check_T33(f)
        verdicts = []
        report["criteria"] = {}
        engine = convexity.CriterionEngine(f, kernels.DEFAULT_TABLE, None)
        for name in names:
            rep = convexity.sweep(f, name, engine=engine)
            report["criteria"][name] = {
                "verdict": rep.verdicts[name],
                "min_margin": rep.min_margin[name],
                "error_band": rep.error_band[name],
                "witness": _witness_json(rep.witness[name]),
                "grid_meta": rep.grid_meta,
            }
            verdicts.append(rep.verdicts[name])
        holds32, lhs32, rhs32 = convexity.check_T32(f, args.alpha, engine=engine)
        holds_pc, min_pc = convexity.check_pogorelov(f, engine)
        del engine  # Guan-Ma works on 1/f: free the tables of f first
        holds_gm, eig_gm = convexity.check_guan_ma(f)
        report["sufficient_conditions"] = {
            "holder_threshold": {
                "holds": holds32, "lhs": lhs32, "rhs": rhs32, "alpha": args.alpha,
                "seminorm_is_grid_lower_bound": True,
            },
            "symmetry_monotonicity": {"holds": holds33, "worst": worst33},
            "pogorelov": {"holds": holds_pc, "min": min_pc},
            "guan_ma": {"holds": holds_gm, "min_eig": eig_gm},
        }
        report["kernel_equivalence"] = _kernel_equivalence_summary()
        code = _exit_code_from_verdicts(verdicts)

    elif args.command == "lp":
        grid = make_grid(args.L)
        f, trunc = parse_field_source(args.input, grid, args.Lmax)
        report["band_limit_truncation_error"] = trunc
        if args.p == 2.0:
            sol = lp.solve_lp_eigen(f, tol=args.tol)
        else:
            sol = lp.solve_lp(f, args.p, tol=args.tol)
        holds41, l41, r41 = lp.check_lemma41(sol, f)
        holdsc, lc, rc = lp.check_T41_cond(f, args.p)
        hmin, _ = convexity.hessian_min(sol.u)
        report["lp"] = {
            "p": sol.p,
            "lambda": sol.lam,
            "residual_inf": sol.residual_inf,
            "iterations": sol.iterations,
            "converged": sol.converged,
            "degree1_magnitude": sol.degree1_magnitude,
            "lemma41": {"holds": holds41, "lhs": l41, "rhs": r41},
            "t41cond": {"holds": holdsc, "lhs": lc, "rhs": rc},
            "hessian_min": hmin,
            "residual_on_refined_grid": lp.residual_on_refined_grid(sol, f),
            "trace": list(sol.trace),
        }

    elif args.command == "gamma":
        value, err = kernels.gamma_const_info(args.n, args.alpha)
        mc, se = kernels.gamma_monte_carlo(
            args.n, args.alpha, samples=args.mc_samples, seed=args.seed
        )
        rng = np.random.default_rng(args.seed + 1)
        pole = rng.standard_normal(args.n + 1)
        mc2, se2 = kernels.gamma_monte_carlo(
            args.n, args.alpha, samples=args.mc_samples, seed=args.seed + 2, pole=pole
        )
        report["gamma"] = {
            "n": args.n,
            "alpha": args.alpha,
            "value": value,
            "quadrature_error_estimate": err,
            "monte_carlo": {"estimate": mc, "standard_error": se},
            "monte_carlo_random_pole": {"estimate": mc2, "standard_error": se2},
            "z_score": (mc - value) / se if se > 0 else 0.0,
        }

    elif args.command == "kernels":
        csv_text, summary = _kernel_table_csv(args.n)
        report["kernel_equivalence"] = summary
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(csv_text)
            report["kernels_csv"] = args.out
        else:
            sys.stdout.write(csv_text)

    elif args.command == "reconstruct":
        grid, f, u = _solve_pipeline(args, report)
        mesh = body.embed(u)
        report["mesh"] = {
            "vertices": int(mesh.vertices.shape[0]),
            "faces": int(mesh.faces.shape[0]),
            "node_vertex_count": mesh.node_vertex_count,
        }
        if args.obj:
            body.write_obj(mesh, args.obj)
            report["obj"] = args.obj
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(_field_to_csv(u))
            report["u_csv"] = args.out

    timings["total_seconds"] = time.perf_counter() - t_start
    report["timings"] = timings
    return report, code


def _kernel_equivalence_summary(s_values=None, ns=(2, 3, 4)) -> dict:
    if s_values is None:
        s_values = np.arange(-0.95, 0.951, 0.05)
    worst_rc = 0.0
    worst_cf = 0.0
    for n in ns:
        params = kernels.KernelParams(n=n)
        for s in s_values:
            oc = kernels.omega_closed(float(s), params)
            worst_rc = max(worst_rc, abs(kernels.omega_radial(float(s), params) - oc))
            worst_cf = max(worst_cf, abs(oc - kernels.firey_theta(float(s), params)))
    return {
        "max_abs_radial_minus_closed": worst_rc,
        "max_abs_closed_minus_firey": worst_cf,
        "dimensions": list(ns),
    }


def _kernel_table_csv(n: int):
    params = kernels.KernelParams(n=n)
    s_values = np.arange(-0.95, 0.951, 0.05)
    header = "s,omega_radial,omega_closed,firey_theta,berg_g2,berg_g3,berg_g4"
    lines = [header]
    for s in s_values:
        s = float(s)
        lines.append(
            ",".join(
                repr(v)
                for v in (
                    s,
                    kernels.omega_radial(s, params),
                    kernels.omega_closed(s, params),
                    kernels.firey_theta(s, params),
                    kernels.berg_g(2, s),
                    kernels.berg_g(3, s),
                    kernels.berg_g(4, s),
                )
            )
        )
    summary = _kernel_equivalence_summary(s_values, ns=(n,) if n != 2 else (2, 3, 4))
    return "\n".join(lines) + "\n", summary


def _main(argv) -> int:
    args = _make_parser().parse_args(argv)
    try:
        report, code = run(args)
    except OrthogonalityViolation as exc:
        report = {
            "config": _config_echo(args),
            "error": {"type": "OrthogonalityViolation", "defect": list(exc.defect)},
        }
        code = 1
    except ChristoffelError as exc:
        report = {
            "config": _config_echo(args),
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        code = 1
    text = _full_json(report)
    if getattr(args, "report", None):
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return code


def main(argv=None) -> int:
    """Run the CLI; a reader that closes stdout early ends it with exit code
    1 and no traceback."""
    try:
        code = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: point it at devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
