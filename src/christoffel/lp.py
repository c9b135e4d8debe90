"""The L_p extension: (Laplacian + 2) u = f u^(p-1) on S^2, p >= 2.

For p > 2 damped quasi-Newton on harmonic coefficients, the Jacobian
replaced by the spectral diagonal with f u^(p-2) taken at its mean; the
p = 2 case is the generalized eigenproblem (Laplacian + 2) u = lambda f u
for the pair (lambda, u) with u > 0, solved by Jacobian-free Newton-Krylov
on the bordered system with a max-node normalization pin: GMRES whose
products are transforms, analyze(f synthesize(x)), preconditioned by the
exact O(K) inverse of the bordered matrix with f replaced by its mean.  No
K x K matrix is formed.  A stall ends either solve: the pointwise residual
has a band-limit floor that no iterate below the band of f can pass, so
the solver raises NonConvergence with its best iterate and the reason it
stopped.  Each solution carries a trace of its iterates: the residual
after each accepted step and which path took it.

Imports: only numpy at import and for p > 2; the p = 2 solver imports
``scipy.sparse.linalg`` for GMRES.

The nonlinear right side is not a priori orthogonal to the degree-1
harmonics; its degree-1 component is projected at every iteration and the
final projected magnitude is reported as a self-consistency diagnostic
(it must vanish at a true solution).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import harmonics, kernels
from .errors import InvalidParameter, NonConvergence, NotPositive, PositivityLost
from .sphere import make_grid

# p = 2 Newton steps: GMRES to this relative residual, restarted after
# _KRYLOV_RESTART iterations, for at most _KRYLOV_CYCLES cycles.  Newton
# has stalled once _STALL_STEPS consecutive steps each failed to cut the
# residual below _STALL_RATIO times the one before (at a band-limit floor
# the residual still moves in its last digits, so plain "not decreased"
# would keep it running).
_KRYLOV_RTOL = 1e-12
_KRYLOV_RESTART = 80
_KRYLOV_CYCLES = 10
_STALL_STEPS = 2
_STALL_RATIO = 0.5


@dataclass(frozen=True)
class LpSolution:
    """Converged (or best-effort) solution of the L_p problem."""

    u: harmonics.SphericalField
    p: float
    lam: float | None
    residual_inf: float
    iterations: int
    converged: bool
    degree1_magnitude: float = 0.0
    # {"path", "residual_inf"} after each step, the residual in the
    # normalization of the returned u.  solve_lp: path quasi_newton for
    # each iteration, plus the "step_scale" left after backtracking (0.0:
    # every trial was rejected, the iterate kept, the solve stalled).
    # solve_lp_eigen: path newton for each completed Newton step, with the
    # "krylov_iterations" of its GMRES solve.
    trace: tuple = ()


def _require_positive_field(f):
    if np.min(f.values) <= 0.0:
        raise NotPositive("right-hand side f must be strictly positive")


def _mean(f) -> float:
    return f.grid.integrate(f.values) / (4.0 * np.pi)


def _residual_inf(coeffs, grid, fv, uv, p: float, lam: float | None = None) -> float:
    """Max-norm residual of (Laplacian + 2) u - (lambda) f u^(p-1) on a
    grid, from the coefficients of u and the values fv, uv of f and u at
    its nodes."""
    lu = harmonics.synthesize(coeffs.apply_operator(), grid).values
    return float(np.max(np.abs(lu - (1.0 if lam is None else lam) * fv * uv ** (p - 1.0))))


def residual_on_refined_grid(sol: LpSolution, f, refine: int = 2) -> float:
    """Max-norm residual re-evaluated on a ``refine``-times finer grid, with
    u and f synthesized there from their coefficients."""
    grid2 = make_grid(refine * sol.u.grid.L)
    uc = harmonics.require_coeffs(sol.u)
    uv = harmonics.synthesize(uc, grid2).values
    fv = harmonics.synthesize(harmonics.require_coeffs(f), grid2).values
    return _residual_inf(uc, grid2, fv, uv, sol.p, sol.lam)


def solve_lp(
    f: harmonics.SphericalField,
    p: float,
    tol: float = 1e-8,
    max_iter: int = 200,
    initial: float | None = None,
) -> LpSolution:
    """Solve (Laplacian + 2) u = f u^(p-1) for p > 2 with u > 0.

    Damped quasi-Newton on harmonic coefficients from the constant initial
    guess (the constant balancing the equation for averaged data).  The
    spectral diagonal 2 - l(l+1) - (p-1) mean(f u^(p-2)) approximates the
    Jacobian and is uniformly invertible; steps are backtracked on the
    pointwise residual and rejected if positivity would be lost.  A round
    in which every trial is rejected is a stall and ends the solve.

    A plain damped fixed-point iteration on u <- G(f u^(p-1)) is unstable
    here: at a constant solution the damped map has multiplier
    1 + tau (p - 2) > 1, so the constant mode always diverges.

    The operator annihilates degree-1 harmonics, so those three rows of the
    system are the constraints 0 = (f u^(p-1))_{1m}; the iteration drives
    them by moving the degree-1 coefficients of u, and the final magnitude
    of that right-side component is reported as a diagnostic (it vanishes
    at a true solution).

    Raises InvalidParameter unless 2 < p < inf, 0 < tol < inf and the start
    u0, f u0^(p-1) and (p-1) f u0^(p-2) are finite; NonConvergence on a
    stall or at max_iter, carrying the best iterate and naming the reason;
    PositivityLost if the iterate collapses toward u = 0.
    """
    _require_positive_field(f)
    harmonics.require_tolerance(tol)
    if not 2.0 < p < np.inf:
        raise InvalidParameter(
            f"solve_lp requires 2 < p < inf, got p = {p} (p = 2 is the eigenproblem: "
            "solve_lp_eigen)"
        )
    coeffs = harmonics.require_coeffs(f)
    grid = f.grid
    L_max = coeffs.L_max
    try:
        u0 = (2.0 / _mean(f)) ** (1.0 / (p - 2.0)) if initial is None else float(initial)
    except OverflowError:
        u0 = np.inf
    if not np.isfinite(u0):
        raise InvalidParameter(f"the start u0 of p = {p} is not finite")
    c = np.zeros((L_max + 1) ** 2)
    c[0] = u0 * np.sqrt(4.0 * np.pi)
    uv = harmonics.synthesize(harmonics.HarmonicCoeffs(L_max=L_max, c=c), grid).values
    if np.min(uv) <= 0.0:
        raise PositivityLost("initial guess is not positive")
    with np.errstate(over="ignore", invalid="ignore"):
        start = [f.values * uv ** (p - 1.0), (p - 1.0) * f.values * uv ** (p - 2.0)]
    if not np.all(np.isfinite(start)):
        raise InvalidParameter(f"f u0^(p-1) or its slope overflows at p = {p}, u0 = {u0}")
    D = harmonics.operator_diagonal(L_max)
    area = 4.0 * np.pi

    def rhs_coeffs(uv_):
        rc = harmonics.analyze(
            harmonics.SphericalField(grid=grid, values=f.values * uv_ ** (p - 1.0)),
            L_max,
        )
        return rc.c, harmonics.degree1_magnitude(rc)

    def residual_inf_of(c_, uv_):
        return _residual_inf(harmonics.HarmonicCoeffs(L_max=L_max, c=c_), grid, f.values, uv_, p)

    rhs_c, d1 = rhs_coeffs(uv)
    res = residual_inf_of(c, uv)
    trace = []
    stop = "iteration cap"
    while res > tol and len(trace) < max_iter:
        gbar = grid.integrate(f.values * uv ** (p - 2.0)) / area
        step = -(D * c - rhs_c) / (D - (p - 1.0) * gbar)
        accepted = False
        for halvings in range(25):
            c_try = c + step
            uv_try = harmonics.synthesize(
                harmonics.HarmonicCoeffs(L_max=L_max, c=c_try), grid
            ).values
            if np.min(uv_try) > 0.0:
                res_try = residual_inf_of(c_try, uv_try)
                if res_try < res:
                    c, uv, res = c_try, uv_try, res_try
                    rhs_c, d1 = rhs_coeffs(uv)
                    accepted = True
                    break
            step = 0.5 * step
        trace.append({
            "path": "quasi_newton",
            "step_scale": 0.5**halvings if accepted else 0.0,
            "residual_inf": res,
        })
        if np.max(uv) < 0.05 * u0:
            # u = 0 solves the equation too; an iterate sliding there will
            # satisfy the tolerance without being the positive solution
            raise PositivityLost(
                "iterate collapsed toward the zero solution; restart from a "
                "larger initial guess"
            )
        if not accepted:
            stop = "stall"
            break
    u = harmonics.SphericalField(
        grid=grid, values=uv, coeffs=harmonics.HarmonicCoeffs(L_max=L_max, c=c)
    )
    sol = LpSolution(
        u=u, p=p, lam=None, residual_inf=res, iterations=len(trace),
        converged=res <= tol, degree1_magnitude=d1, trace=tuple(trace),
    )
    if not sol.converged:
        raise NonConvergence(
            f"L_p solver stopped ({stop}): residual {res:.3e} > tol {tol:.3e} "
            f"after {len(trace)} iterations",
            best=sol,
        )
    return sol


def _mean_field_inverse(d, gc, pin):
    """Exact inverse of the bordered matrix [[diag(d), -gc], [pin, 0]].

    This is the p = 2 Newton matrix with M replaced by mean(f) I (d = D -
    lambda mean(f), gc = mean(f) c); it preconditions the Krylov solve.
    Entries k >= 1 are eliminated through d; the l = 0 entry d[0] vanishes
    at the starting lambda = 2/mean(f), so (x[0], mu) come from the 2x2
    Schur complement left by the elimination.
    """
    w = pin[1:] / d[1:]
    a = w @ gc[1:]
    det = d[0] * a + gc[0] * pin[0]

    def apply(y):
        r, rho = y[:-1], y[-1]
        t = rho - w @ r[1:]
        x0 = (r[0] * a + gc[0] * t) / det
        mu = (d[0] * t - pin[0] * r[0]) / det
        x = np.empty_like(y)
        x[0] = x0
        x[1:-1] = (r[1:] + gc[1:] * mu) / d[1:]
        x[-1] = mu
        return x

    return apply


def solve_lp_eigen(
    f: harmonics.SphericalField,
    tol: float = 1e-8,
    max_iter: int = 60,
    initial: np.ndarray | None = None,
) -> LpSolution:
    """Solve the p = 2 eigenproblem (Laplacian + 2) u = lambda f u.

    In coefficients this is D c = lambda M c, with D the spectrum of the
    operator and M the Galerkin matrix of multiplication by f.  Newton
    iteration on the bordered system {(D - lambda M) c = 0, u(pin node) =
    1} from u = 1, lambda = 2/mean(f), Jacobian-free (Knoll & Keyes 2004):
    each step is a GMRES solve whose products need no matrix, since M x =
    analyze(f synthesize(x)) exactly.  The preconditioner is the exact
    inverse of the same bordered matrix with M replaced by mean(f) I, which
    costs O(K).  The residual is homogeneous of degree 1 in u, so the loop
    tests and traces it for max u = 1, the normalization of the returned
    solution.

    Raises InvalidParameter unless 0 < tol < inf; PositivityLost if the
    final u is not positive; NonConvergence, carrying the last Newton
    iterate normalized to max u = 1 and naming the reason, if a Krylov
    solve fails, a step is not finite, Newton stalls (two steps in a row
    fail to halve the residual) or max_iter steps end above tol.
    """
    from scipy.sparse.linalg import LinearOperator, gmres

    _require_positive_field(f)
    harmonics.require_tolerance(tol)
    coeffs = harmonics.require_coeffs(f)
    grid = f.grid
    L_max = coeffs.L_max
    K = (L_max + 1) ** 2
    D = harmonics.operator_diagonal(L_max)
    fbar = _mean(f)

    def values_of(c_):
        return harmonics.synthesize(harmonics.HarmonicCoeffs(L_max=L_max, c=c_), grid).values

    def times_f(uv_):
        """M x from the grid values of x."""
        field = harmonics.SphericalField(grid=grid, values=f.values * uv_)
        return harmonics.analyze(field, L_max).c

    if initial is None:
        c = np.zeros(K)
        c[0] = np.sqrt(4.0 * np.pi)
    else:
        c = np.asarray(initial, dtype=float).copy()
    lam = 2.0 / fbar
    uv = values_of(c)
    pin = harmonics.node_basis(grid, int(np.argmax(uv)), L_max)

    def residual_of(c_, lam_, uv_):
        res_ = _residual_inf(harmonics.HarmonicCoeffs(L_max=L_max, c=c_), grid, f.values, uv_,
                             2.0, lam_)
        return res_ / float(np.max(uv_))

    def jacobian_times(x):
        # reads the current Newton iterate's lam and Mc
        xc = x[:K]
        return np.concatenate([
            D * xc - lam * times_f(values_of(xc)) - x[K] * Mc, [pin @ xc],
        ])

    J = LinearOperator((K + 1, K + 1), matvec=jacobian_times, dtype=float)
    res = residual_of(c, lam, uv)
    stalled = 0
    trace = []
    stop = "iteration cap"
    while res > tol and len(trace) < max_iter:
        if stalled == _STALL_STEPS:
            stop = "stall"
            break
        Mc = times_f(uv)
        F = np.concatenate([D * c - lam * Mc, [pin @ c - 1.0]])
        P = LinearOperator(
            (K + 1, K + 1), matvec=_mean_field_inverse(D - lam * fbar, fbar * c, pin),
            dtype=float,
        )
        krylov = []
        step, info = gmres(
            J, -F, rtol=_KRYLOV_RTOL, restart=_KRYLOV_RESTART, maxiter=_KRYLOV_CYCLES,
            M=P, callback=krylov.append, callback_type="pr_norm",
        )
        if info != 0 or not np.all(np.isfinite(step)):
            stop = "Krylov failure" if info != 0 else "non-finite step"
            break
        c = c + step[:K]
        lam = lam + step[K]
        uv = values_of(c)
        res_prev, res = res, residual_of(c, lam, uv)
        stalled = stalled + 1 if res > _STALL_RATIO * res_prev else 0
        trace.append({"path": "newton", "residual_inf": res, "krylov_iterations": len(krylov)})

    if np.min(uv) <= 0.0:
        raise PositivityLost("principal eigenfunction is not strictly positive")
    scale = float(np.max(uv))
    u = harmonics.SphericalField(
        grid=grid, values=uv / scale,
        coeffs=harmonics.HarmonicCoeffs(L_max=L_max, c=c / scale),
    )
    sol = LpSolution(
        u=u, p=2.0, lam=float(lam), residual_inf=res, iterations=len(trace),
        converged=res <= tol, degree1_magnitude=float(np.linalg.norm(c[1:4] / scale)),
        trace=tuple(trace),
    )
    if not sol.converged:
        raise NonConvergence(
            f"eigen solver stopped ({stop}): residual {res:.3e} > tol {tol:.3e} "
            f"after {len(trace)} Newton steps",
            best=sol,
        )
    return sol


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


def check_T41_cond(f, p: float, gamma1: float | None = None):
    """Quantitative convexity condition for the L_p problem (n = 2):

        (1 + 2 (p-1) max f / min f) * exp(2 pi max|grad f| / min f)^(p-1)
            * max|grad f|  <=  gamma_{2,1} min f.

    Returns (holds, lhs, rhs).
    """
    _require_positive_field(f)
    if p < 2.0:
        raise InvalidParameter("condition applies for p >= 2")
    if gamma1 is None:
        gamma1 = kernels.gamma_const(2, 1.0)
    fmin = float(np.min(f.values))
    fmax = float(np.max(f.values))
    gmax = float(np.max(np.linalg.norm(f.gradient, axis=1)))
    lhs = (
        (1.0 + 2.0 * (p - 1.0) * fmax / fmin)
        * np.exp(2.0 * np.pi * gmax / fmin) ** (p - 1.0)
        * gmax
    )
    rhs = gamma1 * fmin
    return bool(lhs <= rhs), float(lhs), float(rhs)
