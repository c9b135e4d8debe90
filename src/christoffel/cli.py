"""Command-line surface: subcommands, file formats, and the JSON report.

Commands
--------
solve        solve (Laplacian + 2) u = f and write u as CSV
check        evaluate CR1 and CR2 at every node by their per-degree
             multipliers (exact for the band-limited data, so the
             error band is a rounding floor), report each one's
             route_gap to min eig(Hess u + u I) over the nodes, and run
             the sufficient-condition checkers
lp           solve the L_p problem for p >= 2 (lambda reported at p = 2)
gamma        compute gamma_{n, alpha} by the Gauss-Jacobi rule that the
             Hoelder threshold uses, with adaptive-quadrature and
             Monte-Carlo cross-checks
kernels      dump kernel tables as CSV
reconstruct  solve and export the body surface as a Wavefront OBJ

Field sources: ``file:<path>`` (CSV with header theta,phi,value, rows in
theta-major grid order) or ``family:<name>:<params>`` with families
constant:c=..., ellipsoid:a=..,b=..,c=.. (curvature data of the ellipsoid),
harmonic:l=..,m=..,eps=..,base=...

Exit codes: 0 success/holds, 2 a requested criterion fails, 3 inconclusive,
1 error.  Errors include command-line usage errors (unknown flags, bad
values), which print the usage and write no report; every other error is
reported as {"type": ..., "message": ...} in the report's ``error`` field,
an unwritable output file as its OSError, which names the path, and a size
too large for memory as a MemoryError; an unwritable ``--report`` path
prints that error as one line to stderr.
Reports are deterministic for a fixed config and seed (the timings block is
excluded from that contract).  A reader that closes stdout early (``| head``)
ends the command with exit code 1 and no traceback.

Output files are byte-deterministic too, every float written as its
shortest round-trip ``repr``.  The u CSV has one theta,phi,value row per
grid node in theta-major order.  The OBJ has v lines, vn lines in the same
order, then 1-based f lines in the order of :class:`body.SurfaceMesh`:
two per grid quad in (ring, azimuth) order, split along the shorter
diagonal with ties to 1e-12 relative to the a-c one, then the (north,
south) polar fan pairs.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

import numpy as np

from . import body, convexity, harmonics, kernels, lp
from .errors import (
    ChristoffelError,
    GridMismatch,
    InvalidParameter,
    NonConvergence,
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


def _plain_ascii(text: str) -> bool:
    """False when ``text`` holds a character that ``float`` reads but a
    number should not have: a digit-group underscore or a non-ASCII
    character, such as a non-ASCII digit."""
    return text.isascii() and "_" not in text


def _plain_number(convert):
    """argparse type that reads a number by ``convert`` (int or float)
    only from plain ASCII text, as field input reads it: ``1_6`` or a
    non-ASCII digit is a usage error."""
    def parse(text):
        if not _plain_ascii(text):
            raise ValueError(text)
        return convert(text)

    parse.__name__ = convert.__name__  # argparse names it in its message
    return parse


def _raise_first_bad_row(rows):
    """ParseError naming the first data row that is blank or not three
    plain ASCII numbers."""
    for k, row in enumerate(rows):
        if not row.strip():
            raise ParseError("blank row", line=k + 2)
        parts = row.split(",")
        if len(parts) != 3:
            raise ParseError("expected three comma-separated fields", line=k + 2)
        for part in parts:
            try:
                if not _plain_ascii(part):
                    raise ValueError(part)
                float(part)
            except ValueError as exc:
                raise ParseError(f"bad value {part!r}", line=k + 2) from exc
    raise ParseError("rows are not three numbers each")


def _field_from_csv(path: str, grid) -> np.ndarray:
    """Read a theta,phi,value CSV whose rows are the grid's nodes in order
    and return its values.

    Blank lines at the end of the file are ignored.  Every row's angles
    must match its node's within 1e-9; the first row that does not raises
    GridMismatch naming its line.  A blank row, a row that is not three
    numbers, a number that only Python's ``float`` reads (``2_0``, a
    non-ASCII digit) and a value that is not finite each raise ParseError
    naming the first such line.  The rows are checked one by one only on
    these error paths: when their count is wrong or the whole-text parse
    has failed.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not lines or lines[0].strip().lower() != "theta,phi,value":
        raise ParseError("expected header 'theta,phi,value'", line=1)
    rows = lines[1:]
    while rows and not rows[-1].strip():
        rows.pop()
    if len(rows) != grid.node_count:
        if not all(map(str.strip, rows)):
            _raise_first_bad_row(rows)
        raise GridMismatch(
            f"file has {len(rows)} rows, grid expects {grid.node_count}"
        )
    data = ",".join(rows)
    plain, fields = _plain_ascii(data), data.split(",")
    del data  # freed before the values are parsed, as a temporary would be
    try:
        if len(fields) != 3 * len(rows) or not plain:
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
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ParseError(f"value {float(values[bad[0]])!r} is not finite", line=int(bad[0]) + 2)
    return values


# largest --L: 8x the largest grid of the tests and workloads (256).  Grid L
# has 2 L^2 nodes of a dozen floats each (0.8 GB at 2048) and its
# Gauss-Legendre rule forms an (L, L) matrix: a larger L is refused at once
MAX_GRID_L = 2048

# range of every value of a field source: below it f^2 in the Guan-Ma form
# is subnormal and 2/f overflows, above it squared Hessian entries overflow
_F_MIN, _F_MAX = 1e-100, 1e100


def _parse_params(spec: str):
    """``key=number`` pairs: a number that does not parse, or that only
    Python's ``float`` reads (``1_0``, a non-ASCII digit), is a ParseError,
    one that is not finite an InvalidParameter."""
    out = {}
    plain = _plain_ascii(spec)
    for item in spec.split(",") if spec else ():
        key, _, val = item.partition("=")
        try:
            if not (plain or _plain_ascii(item)):
                raise ValueError(item)
            value = float(val)  # "" when the item has no "="
        except ValueError as exc:
            raise ParseError(f"malformed parameter {item!r}") from exc
        if not np.isfinite(value):
            raise InvalidParameter(f"parameter {item!r} is not finite")
        out[key.strip()] = value
    return out


def _integer_param(kv: dict, key: str, default: int) -> int:
    """Parameter ``key`` as an int; a fractional value is an InvalidParameter."""
    value = kv.get(key, default)
    if value != int(value):
        raise InvalidParameter(f"parameter {key}={value!r} is not an integer")
    return int(value)


def _require_range(values, not_positive: str) -> None:
    """NotPositive unless every value is > 0, InvalidParameter unless in [_F_MIN, _F_MAX]."""
    lo, hi = float(np.min(values)), float(np.max(values))
    if lo <= 0.0:
        raise NotPositive(not_positive)
    if not (_F_MIN <= lo and hi <= _F_MAX):
        raise InvalidParameter(
            f"field values must lie in [{_F_MIN:g}, {_F_MAX:g}], got [{lo!r}, {hi!r}]")


def parse_field_source(spec: str, grid, L_max: int):
    """Build a positive field from a CLI field source string.

    Returns (field with coefficients, truncation error: of the band-limit
    re-analysis of a file, of f against its closed form at the nodes for an
    ellipsoid, zero for exactly band-limited families).  Every source raises
    BandLimitExceeded when the grid cannot resolve L_max, and
    InvalidParameter when a value of f lies outside [_F_MIN, _F_MAX].
    """
    harmonics.require_band_limit(grid, L_max)
    if spec.startswith("file:"):
        values = _field_from_csv(spec[5:], grid)
        _require_range(values, "input field must be strictly positive")
        return harmonics.bandlimit(grid, values, L_max)
    if not spec.startswith("family:"):
        raise ParseError(f"unknown field source {spec!r}")
    rest = spec[7:]
    name, _, params = rest.partition(":")
    kv = _parse_params(params)
    if name == "constant":
        c = kv.get("c", 2.0)
        field = harmonics.field_from_function(
            grid, lambda p: np.full(len(p), float(c)), L_max
        )
        not_positive = "constant family needs c > 0"
    elif name == "ellipsoid":
        ell = body.Ellipsoid(kv.get("a", 1.0), kv.get("b", 1.0), kv.get("c", 1.0))
        field = body.forward_f(body.support_function(ell, grid, L_max))
        not_positive = "ellipsoid curvature data not positive on the grid"
    elif name == "harmonic":
        bump = body.HarmonicBump(
            l=_integer_param(kv, "l", 2), m=_integer_param(kv, "m", 0),
            eps=kv.get("eps", 0.1), base=kv.get("base", 2.0),
        )
        field = harmonics.synthesize(bump.coeffs(L_max), grid)
        not_positive = "harmonic family is not positive at this eps/base"
    else:
        raise ParseError(f"unknown family {name!r}")
    _require_range(field.values, not_positive)
    if name == "ellipsoid":
        return field, float(np.max(np.abs(field.values - ell.curvature_values(grid.nodes))))
    return field, 0.0


def _full_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False)


def _witness_json(witness):
    x, xi = witness
    return {"x": list(x.coords), "xi": list(xi.dir)}


# a token that reads as a negative number: digits with an optional point
# and exponent, or inf, infinity or nan
_NEGATIVE_NUMBER = re.compile(r"-(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf(?:inity)?|nan)\Z",
                              re.IGNORECASE | re.ASCII)


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 1, the error code, not argparse's 2 ("fails").
    Every token that reads as a negative number (-1e-3, -inf, -2e0, not
    only argparse's -1 and -0.5) is an option's value, as no option name
    looks like a number; subparsers are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

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
    plain_int, plain_float = _plain_number(int), _plain_number(float)

    def command(name, summary, field=True, linear=True):
        # field commands other than lp solve (Laplacian + 2) u = f: they
        # take --project, and a --tol relative to max|f|
        p = sub.add_parser(name, help=summary)
        p.add_argument("--report", type=str, default=None, help="write JSON report here")
        if field:
            p.add_argument("--input", type=str, default="family:constant:c=2",
                           help="field source: file:<path> or family:<name>:<params>")
            p.add_argument("--L", type=plain_int, default=harmonics.DEFAULT_GRID_L,
                           help=f"grid resolution, 4 to {MAX_GRID_L}")
            p.add_argument("--Lmax", type=plain_int, default=harmonics.DEFAULT_L_MAX,
                           help="band limit")
            p.add_argument("--tol", type=plain_float, default=1e-8, help=(
                "tolerance relative to max|f|: the degree-1 defect may not exceed "
                "tol*max|f|, the residual 10*tol*max|f|" if linear else
                "absolute tolerance of the max-norm residual"))
            if linear:
                p.add_argument("--project", action="store_true",
                               help="project out the degree-1 component instead of erroring")
        else:
            p.add_argument("--n", type=plain_int, default=2,
                           help=f"sphere dimension, 2 to {kernels.N_MAX}")
        return p

    p = command("solve", "solve the linear problem and write u")
    p.add_argument("--out", type=str, default=None, help="write u as CSV here")

    p = command("check", "convexity criteria and sufficient conditions")
    p.add_argument("--criteria", type=str, default="cr1,cr2",
                   help="comma-separated criteria to sweep (cr1, cr2)")
    p.add_argument("--alpha", type=plain_float, default=0.5,
                   help="Hoelder exponent of the threshold condition")

    p = command("lp", "solve the L_p problem", linear=False)
    p.add_argument("--p", type=plain_float, default=4.0,
                   help="exponent p >= 2 (p = 2 is the eigenproblem)")

    p = command("gamma", "threshold constant gamma_{n, alpha}", field=False)
    p.add_argument("--alpha", type=plain_float, default=1.0, help="Hoelder exponent alpha")
    p.add_argument("--mc-samples", type=plain_int, default=10**6,
                   help="Monte-Carlo samples of each cross-check")
    p.add_argument("--seed", type=plain_int, default=0, help="seed of the Monte-Carlo cross-checks")

    p = command("kernels", "dump kernel tables as CSV", field=False)
    p.add_argument("--out", type=str, default=None, help="write the CSV here")

    p = command("reconstruct", "solve and export the body as OBJ")
    p.add_argument("--obj", type=str, default=None, help="write the mesh here")
    p.add_argument("--out", type=str, default=None, help="write u as CSV here")
    return ap


def _config_echo(args) -> dict:
    """The parsed options by name; a number that is not finite is echoed
    as its repr ("nan", "inf"), since strict JSON has no token for it."""
    return {key: repr(value) if isinstance(value, float) and not np.isfinite(value) else value
            for key, value in sorted(vars(args).items())}


def _criteria_names(spec: str) -> list:
    """The criteria of ``spec`` in order, each once."""
    names = list(dict.fromkeys(name.strip().lower() for name in spec.split(",")))
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
    projected = harmonics.degree1_magnitude(f.coeffs) if args.project else 0.0
    u, residual = harmonics.solve_christoffel(f, rtol=args.tol, project=args.project)
    report["projected_degree1_magnitude"] = projected
    report["solver_residual_inf"] = residual
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
    if getattr(args, "L", 0) > MAX_GRID_L:  # before make_grid allocates anything
        raise InvalidParameter(f"grid needs L <= {MAX_GRID_L}, got {args.L}")

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
        hmin, hwit, node_hmins = convexity.hessian_min(u)
        report["hessian_min"] = {"value": hmin, "witness": list(hwit.coords)}
        holds33, min33, wit33 = convexity.check_T33(f)
        verdicts = []
        report["criteria"] = {}
        for name in names:
            rep = convexity.sweep(f, name)
            report["criteria"][name] = {
                "verdict": rep.verdict,
                "min_margin": rep.min_margin,
                "error_band": rep.error_band,
                "route_gap": convexity.route_gap(rep, node_hmins),
                "witness": _witness_json(rep.witness),
                "grid_meta": {"L": grid.L},
            }
            verdicts.append(rep.verdict)
        holds32, lhs32, rhs32 = convexity.check_T32(f, args.alpha)
        holds_pc, min_pc, wit_pc = convexity.check_pogorelov(f)
        holds_gm, eig_gm = convexity.check_guan_ma(f)
        report["sufficient_conditions"] = {
            "holder_threshold": {
                "holds": holds32, "lhs": lhs32, "rhs": rhs32, "alpha": args.alpha,
                "seminorm_is_grid_lower_bound": True,
            },
            "symmetry_monotonicity": {"holds": holds33, "min": min33,
                                      "witness": _witness_json(wit33),
                                      "equivalent_to": "pogorelov"},
            "pogorelov": {"holds": holds_pc, "min": min_pc, "witness": _witness_json(wit_pc)},
            "guan_ma": {"holds": holds_gm, "min_eig": eig_gm},
        }
        report["kernel_equivalence"] = kernels.kernel_table(2)[1]
        code = _exit_code_from_verdicts(verdicts)

    elif args.command == "lp":
        grid = make_grid(args.L)
        f, trunc = parse_field_source(args.input, grid, args.Lmax)
        report["band_limit_truncation_error"] = trunc
        sol = lp.solve_lp(f, args.p, tol=args.tol)
        holds41, l41, r41 = lp.check_lemma41(sol, f)
        holdsc, lc, rc = lp.check_T41_cond(f, args.p)
        report["lp"] = {
            **_lp_solution_json(sol),
            "lemma41": {"holds": holds41, "lhs": l41, "rhs": r41},
            "t41cond": {"holds": holdsc, "lhs": lc, "rhs": rc},
            "hessian_min": convexity.hessian_min(sol.u)[0],
            "residual_on_refined_grid": lp.residual_on_refined_grid(sol, f),
        }

    elif args.command == "gamma":
        value = kernels.gamma_const(args.n, args.alpha)
        adaptive, err = kernels.gamma_const_info(args.n, args.alpha)
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
            "adaptive_quadrature": {"value": adaptive, "gap": abs(value - adaptive)},
            "quadrature_error_estimate": err,
            "monte_carlo": {"estimate": mc, "standard_error": se},
            "monte_carlo_random_pole": {"estimate": mc2, "standard_error": se2},
            "z_score": (mc - value) / se if se > 0 else 0.0,
        }

    elif args.command == "kernels":
        rows, report["kernel_equivalence"] = kernels.kernel_table(args.n)
        s = np.array([row[0] for row in rows])
        berg = zip(*(kernels.berg_g(d, s).tolist() for d in (2, 3, 4)))
        lines = ["s,omega_radial,omega_closed,firey_theta,berg_g2,berg_g3,berg_g4"]
        lines += [",".join(map(repr, row + g)) for row, g in zip(rows, berg)]
        csv_text = "\n".join(lines) + "\n"
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


def _lp_solution_json(sol: lp.LpSolution) -> dict:
    """The solver's own figures and trace for a converged or best iterate."""
    return {"p": sol.p, "lambda": sol.lam, "residual_inf": sol.residual_inf,
            "iterations": sol.iterations, "converged": sol.converged,
            "degree1_magnitude": sol.degree1_magnitude, "trace": list(sol.trace)}


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
    except (ChristoffelError, OSError, MemoryError) as exc:
        # a failed read is a ParseError, so an OSError is an output file
        # that cannot be written; its message names the path.  A
        # MemoryError is a size beyond the machine, such as the grid of a
        # huge --L, reported under the base name whatever subclass raised it
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        report = {
            "config": _config_echo(args),
            "error": {"type": name, "message": str(exc)},
        }
        if isinstance(exc, NonConvergence):
            # the best iterate's figures and trace explain the failure
            report["lp"] = _lp_solution_json(exc.best)
        code = 1
    text = _full_json(report)
    if getattr(args, "report", None):
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"christoffel: {exc}", file=sys.stderr)
            return 1
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
