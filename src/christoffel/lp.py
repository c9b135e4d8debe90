"""The L_p extension: (Laplacian + 2) u = f u^(p-1) on S^2, p >= 2.

One solver, :func:`solve_lp`, serves every 2 <= p < inf: Jacobian-free
Newton-Krylov (Knoll & Keyes 2004) on the scaled problem (Laplacian + 2) v
= lambda f v^(p-1), whose p = 2 case is the eigenproblem, with v normalized
to mean 1: the one coefficient c_0 = sqrt(4 pi) at every band and on every
grid.  No K x K matrix is formed.  A stall ends the solve: the pointwise
residual has a band-limit floor that no iterate below the band of f can
pass, so the solver raises NonConvergence with its best iterate and the
reason it stopped.  Each solution carries a trace of its Newton steps.

Imports: only numpy, on every path; :func:`_gmres` is a numpy GMRES.

The operator annihilates the degree-1 harmonics, so three rows of the
system are the constraints 0 = (f u^(p-1))_{1m}, met by the degree-1
coefficients of u.  The degree-1 magnitude of the right side at the
returned u is reported as a self-consistency diagnostic (it must vanish at
a true solution).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import harmonics, kernels
from .errors import InvalidParameter, NonConvergence, NotPositive, PositivityLost
from .sphere import make_grid

# Newton steps: GMRES to the relative residual min(_KRYLOV_RTOL_MAX, |F|)
# in at most _KRYLOV_MAX_ITER iterations, with no restart.  Newton has
# stalled once _STALL_STEPS consecutive steps each failed to cut the
# residual below _STALL_RATIO times the one before (at a band-limit floor
# the residual still moves in its last digits, so plain "not decreased"
# would keep it running).
_KRYLOV_RTOL_MAX = 0.1
_KRYLOV_MAX_ITER = 80
_STALL_STEPS = 2
_STALL_RATIO = 0.5
# most Newton steps of one solve
_MAX_NEWTON_STEPS = 60


@dataclass(frozen=True)
class LpSolution:
    """Converged (or best-effort) solution of the L_p problem."""

    u: harmonics.SphericalField
    p: float
    lam: float | None
    residual_inf: float
    iterations: int
    converged: bool
    degree1_magnitude: float
    # {"path": "newton", "residual_inf", "krylov_iterations"} after each
    # Newton step, the residual that of the returned u
    trace: tuple


def _require_positive_field(f):
    if np.min(f.values) <= 0.0:
        raise NotPositive("right-hand side f must be strictly positive")


def _mean(grid, values) -> float:
    return grid.integrate(values) / (4.0 * np.pi)


def residual_on_refined_grid(sol: LpSolution, f) -> float:
    """Max-norm residual re-evaluated on a twice finer grid, with u and f
    synthesized there from their coefficients."""
    grid2 = make_grid(2 * sol.u.grid.L)
    uc = sol.u.coeffs
    uv = harmonics.synthesize(uc, grid2).values
    fv = harmonics.synthesize(f.coeffs, grid2).values
    lam = 1.0 if sol.lam is None else sol.lam
    return harmonics.christoffel_residual(uc, grid2, lam * fv * uv ** (sol.p - 1.0))


def _gmres(matvec, b, precond, rtol):
    """GMRES for A x = b, right-preconditioned, with Givens rotations (Saad
    & Schultz 1986): one Arnoldi cycle of at most _KRYLOV_MAX_ITER
    iterations from x = 0, never restarted.

    ``matvec`` applies A and ``precond`` an approximate inverse of A.
    Returns (x, iterations, converged); converged means |b - A x| <= rtol
    |b| by the rotated least-squares residual, which right preconditioning
    keeps equal to the residual of x.  Arnoldi vectors are orthogonalized
    by classical Gram-Schmidt, twice.
    """
    m = _KRYLOV_MAX_ITER
    beta = np.linalg.norm(b)
    target = rtol * beta
    if beta <= target:
        return np.zeros_like(b), 0, True
    V = np.empty((m + 1, b.size))
    H = np.zeros((m + 1, m))
    rotations = np.empty((m, 2))
    g = np.zeros(m + 1)
    g[0] = beta
    V[0] = b / beta
    for j in range(m):
        w = matvec(precond(V[j]))
        for _ in range(2):
            h = V[: j + 1] @ w
            w = w - h @ V[: j + 1]
            H[: j + 1, j] += h
        H[j + 1, j] = np.linalg.norm(w)
        if H[j + 1, j] > 0.0:
            V[j + 1] = w / H[j + 1, j]
        for i, (cs, sn) in enumerate(rotations[:j]):
            hi, hn = H[i, j], H[i + 1, j]
            H[i, j], H[i + 1, j] = cs * hi + sn * hn, cs * hn - sn * hi
        r_jj = np.hypot(H[j, j], H[j + 1, j])
        rotations[j] = H[j, j] / r_jj, H[j + 1, j] / r_jj
        H[j, j], H[j + 1, j] = r_jj, 0.0
        g[j], g[j + 1] = rotations[j, 0] * g[j], -rotations[j, 1] * g[j]
        if abs(g[j + 1]) <= target:
            break
    k = j + 1
    x = precond(np.linalg.solve(H[:k, :k], g[:k]) @ V[:k])
    return x, k, bool(abs(g[k]) <= target)


def _mean_field_inverse(d, gc):
    """Exact inverse of the bordered matrix [[diag(d), -gc], [e_0^T, 0]].

    This is the Newton matrix of :func:`solve_lp` with f v^(p-2) replaced
    by its mean g (d = D - lambda (p-1) g, gc = (f v^(p-1))_lm); it
    preconditions the Krylov solve.  The border row reads x[0], the mean of
    v times sqrt(4 pi), so y = (r, rho) gives x[0] = rho, mu = (d[0] rho -
    r[0]) / gc[0] and x[k] = (r[k] + gc[k] mu) / d[k]: no Schur complement,
    and d[0] = 2 (2 - p) at the start, 0 for p = 2, is never a divisor,
    while gc[0] = sqrt(4 pi) mean(f v^(p-1)) > 0 for positive v.
    """

    def apply(y):
        x = np.empty_like(y)
        x[0] = y[-1]
        x[-1] = mu = (d[0] * y[-1] - y[0]) / gc[0]
        x[1:-1] = (y[1:-1] + gc[1:] * mu) / d[1:]
        return x

    return apply


def solve_lp(
    f: harmonics.SphericalField,
    p: float,
    tol: float = 1e-8,
) -> LpSolution:
    """Solve (Laplacian + 2) u = f u^(p-1) with u > 0, for 2 <= p < inf.

    Scaling: if (Laplacian + 2) v = lambda f v^(p-1) with lambda > 0 and
    p > 2, then u = s v with s = lambda^(1/(p-2)) solves the problem, since
    the left side scales as s and the right side as s^(p-1) = s lambda.
    For p = 2 the problem is the eigenproblem (Laplacian + 2) u = lambda f
    u, homogeneous in u; the returned u is v scaled by s = 1/max v, and
    ``lam`` is reported (None for p > 2).  Either way the residual of the
    returned u is s times that of v; the loop tests and traces that
    product, so tol bounds the absolute residual of u for every p.

    Newton on (c, lambda), c the coefficients of v, for F = [D c - lambda
    (f v^(p-1))_lm, c_0 - sqrt(4 pi)], D the spectrum of the operator, from
    v = 1 and lambda = 2/mean(f): the border normalizes v by its mean, mean
    v = c_0 / sqrt(4 pi) = 1.  Each full step is one GMRES cycle to relative
    residual min(0.1, |F|), whose products x -> D x - lambda (p-1) (f
    v^(p-2) synthesize(x))_lm - x_lambda (f v^(p-1))_lm are transforms;
    :func:`_mean_field_inverse` preconditions it.

    Raises InvalidParameter unless 2 <= p < inf, 0 < tol < inf, (p-1) f
    is finite and the start's s and 1/s are positive and finite (s =
    (2/mean f)^(1/(p-2)) for p > 2); PositivityLost if the returned u, or
    for p > 2 any Newton iterate, is not positive; NonConvergence, carrying the
    last iterate and naming the reason, if a Krylov solve fails, a step is
    not finite (its s or 1/s included), Newton stalls (two steps in a row
    fail to halve the residual) or ``_MAX_NEWTON_STEPS`` steps end above tol.
    """
    _require_positive_field(f)
    harmonics.require_tolerance(tol)
    if not 2.0 <= p < np.inf:
        raise InvalidParameter(f"solve_lp requires 2 <= p < inf, got p = {p}")
    grid = f.grid
    L_max = f.coeffs.L_max
    K = (L_max + 1) ** 2
    D = harmonics.operator_diagonal(L_max)
    lam = 2.0 / _mean(grid, f.values)
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite((p - 1.0) * f.values)):
            raise InvalidParameter(f"(p-1) f overflows at p = {p}")

    def values_of(c_):
        return harmonics.synthesize(harmonics.HarmonicCoeffs(L_max=L_max, c=c_), grid).values

    def analyze_values(values):
        return harmonics.analyze(grid, values, L_max).c

    def dilation(lam_, uv_):
        # 1/s: max v for p = 2, lambda^(1/(2-p)) for p > 2; None unless s and 1/s are > 0 and finite
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            r_ = float(np.max(uv_) if p == 2.0 else np.float64(lam_) ** (1.0 / (2.0 - p)))
        return r_ if 0.0 < r_ < np.inf and 1.0 / r_ < np.inf else None

    def accept(c_, lam_, uv_, r_):
        """(f v^(p-1))_lm and the residual of u = v / r_ for one iterate."""
        fv = f.values * uv_ ** (p - 1.0)
        res_ = harmonics.christoffel_residual(harmonics.HarmonicCoeffs(L_max=L_max, c=c_), grid,
                                              lam_ * fv)
        return analyze_values(fv), res_ / r_

    def jacobian_times(x):
        # reads the current Newton iterate's lam, slope and rhs
        xc = x[:K]
        return np.concatenate([
            D * xc - lam * (p - 1.0) * analyze_values(slope * values_of(xc)) - x[K] * rhs,
            xc[:1],
        ])

    c = np.zeros(K)
    c[0] = c0 = np.sqrt(4.0 * np.pi)
    uv = values_of(c)
    r = dilation(lam, uv)
    if r is None:
        raise InvalidParameter(f"the start's scale is 0 or not finite at p = {p}")
    rhs, res = accept(c, lam, uv, r)
    stalled = 0
    trace = []
    stop = "iteration cap"
    while res > tol and len(trace) < _MAX_NEWTON_STEPS:
        if stalled == _STALL_STEPS:
            stop = "stall"
            break
        slope = f.values * uv ** (p - 2.0)
        F = np.concatenate([D * c - lam * rhs, [c[0] - c0]])
        precond = _mean_field_inverse(D - lam * (p - 1.0) * _mean(grid, slope), rhs)
        step, krylov_iterations, solved = _gmres(
            jacobian_times, -F, precond, min(_KRYLOV_RTOL_MAX, np.linalg.norm(F)))
        if not solved or not np.all(np.isfinite(step)):
            stop = "non-finite step" if solved else "Krylov failure"
            break
        c_new, lam_new = c + step[:K], lam + step[K]
        uv_new = values_of(c_new)
        # v^(p-1) is NaN below 0 for p > 2; at p = 2 only the returned u must be positive
        if p > 2.0 and np.min(uv_new) <= 0.0:
            raise PositivityLost(f"Newton iterate {len(trace) + 1} is not positive")
        r_new = dilation(lam_new, uv_new)
        rhs_new, res_new = accept(c_new, lam_new, uv_new, r_new) if r_new else (None, np.nan)
        if not np.isfinite(res_new):
            stop = "non-finite step"
            break
        c, lam, uv, r, rhs = c_new, lam_new, uv_new, r_new, rhs_new
        res_prev, res = res, res_new
        stalled = stalled + 1 if res > _STALL_RATIO * res_prev else 0
        trace.append({"path": "newton", "residual_inf": res,
                      "krylov_iterations": krylov_iterations})

    if np.min(uv) <= 0.0:
        raise PositivityLost("u is not strictly positive")
    u = harmonics.SphericalField(
        grid=grid, values=uv / r, coeffs=harmonics.HarmonicCoeffs(L_max=L_max, c=c / r),
    )
    # the right side f u^(p-1) (lambda f u for p = 2) is lambda f v^(p-1) / r
    d1 = harmonics.degree1_magnitude(harmonics.HarmonicCoeffs(L_max=L_max, c=rhs))
    sol = LpSolution(
        u=u, p=p, lam=float(lam) if p == 2.0 else None, residual_inf=res,
        iterations=len(trace), converged=res <= tol, degree1_magnitude=abs(lam) * d1 / r,
        trace=tuple(trace),
    )
    if not sol.converged:
        raise NonConvergence(
            f"L_p solver stopped ({stop}): residual {res:.3e} > tol {tol:.3e} "
            f"after {len(trace)} Newton steps",
            best=sol,
        )
    return sol


# the bench worker wraps lp.solve_lp_eigen by name, so the p = 2 case keeps it
def solve_lp_eigen(f, tol=1e-8) -> LpSolution:
    return solve_lp(f, 2.0, tol)


def check_lemma41(sol: LpSolution, f):
    """Unconditional gradient bound max|grad u|/u <= 2 max|grad f| / min f.

    Holds for every positive solution (n = 2 factor n/(n-1) = 2); a reported
    violation by a converged solution flags a solver bug.  For p = 2 the
    bound applies with f replaced by lambda f, which leaves the two sides'
    ratio unchanged.  Returns (holds, lhs, rhs).
    """
    lhs = float(np.max(np.linalg.norm(sol.u.gradient, axis=1) / sol.u.values))
    rhs = 2.0 * float(np.max(np.linalg.norm(f.gradient, axis=1))) / float(np.min(f.values))
    return bool(lhs <= rhs + 1e-10 * max(1.0, rhs)), lhs, rhs


def check_T41_cond(f, p: float):
    """Quantitative convexity condition for the L_p problem (n = 2):

        (1 + 2 (p-1) max f / min f) * exp(2 pi max|grad f| / min f)^(p-1)
            * max|grad f|  <=  gamma_{2,1} min f,

    gamma_{2,1} from :func:`kernels.gamma_const`.  Returns (holds, lhs, rhs).
    """
    _require_positive_field(f)
    if p < 2.0:
        raise InvalidParameter("condition applies for p >= 2")
    fmin = float(np.min(f.values))
    fmax = float(np.max(f.values))
    gmax = float(np.max(np.linalg.norm(f.gradient, axis=1)))
    lhs = (
        (1.0 + 2.0 * (p - 1.0) * fmax / fmin)
        * np.exp(2.0 * np.pi * gmax / fmin) ** (p - 1.0)
        * gmax
    )
    rhs = kernels.gamma_const(2, 1.0) * fmin
    return bool(lhs <= rhs), float(lhs), float(rhs)
