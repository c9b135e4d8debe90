"""Convexity criteria for solutions of the sphere Laplace problem.

Two equivalent necessary-and-sufficient criteria, evaluated by singular
quadrature over the grid:

* CR1: int_{S^2} omega(<x,z>) <xi,z> <Df(z), xi> dz >= 0 for every witness
  (x, xi), where Df is the gradient of the degree-(-1) extension of f.  The
  value equals omega_2 times the second derivative of the solution's
  1-homogeneous extension along xi.
* CR2: int_{S^2} hat_omega(x,xi,z) (f(z) - f(x)) dz + f(x)/2 >= 0; the value
  equals that second derivative itself, i.e. <U(x) xi, xi> with
  U = Hess u + u I.

Both integrands carry a |x - z|^(-2) kernel singularity.  A geodesic cap
around x is excluded, and the odd leading part of the data is subtracted:
over any cap-excluded domain the kernel moments int omega(s) z dz and
int hat_omega(s, <xi,z>) z dz lie in span(x) by symmetry, so subtracting the
first-order expansion of the data at x changes the exact integral by nothing
while leaving a bounded quadrature integrand.  The omitted cap then
contributes O(delta^2) instead of O(delta).

Both criteria are quadratic forms in xi, so the minimum over tangent
directions at a node is the smaller eigenvalue of a 2x2 matrix, computed in
closed form.

Ground truth: hessian_min checks min eig(Hess u + u I) directly on the
spectral solution.  The classical sufficient conditions (Hoelder threshold,
symmetry monotonicity, Pogorelov, Guan-Ma) are provided as checkers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import harmonics, kernels
from .errors import NotPositive
from .sphere import (
    SpherePoint,
    TangentDirection,
    direction_coords,
    make_grid,
    point_coords,
    tangent_bases,
)


class Criterion(Enum):
    CR1 = "cr1"
    CR2 = "cr2"


@dataclass(frozen=True)
class CriterionValue:
    x: SpherePoint
    xi: TangentDirection
    value: float
    criterion: Criterion

    def __post_init__(self):
        if not np.allclose(self.xi.base.coords, self.x.coords):
            raise ValueError("witness direction must be based at the witness point")


@dataclass(frozen=True)
class ConvexityReport:
    verdicts: dict
    min_margin: dict
    witness: dict
    error_band: dict
    grid_meta: dict


def _require_positive(f):
    if np.min(f.values) <= 0.0:
        raise NotPositive("field must be strictly positive at every node")


def default_delta(grid) -> float:
    """Default excluded-cap radius: twice the polar grid spacing."""
    return 2.0 * np.pi / grid.L


class CriterionEngine:
    """Shared precomputation for witness evaluations on one field.

    Produces, per witness point x, symmetric 3x3 forms S (and constants)
    such that the criterion value at (x, xi) is const + xi^T S xi, for the
    full excluded cap and for the half-radius cap.  Reuse one engine when
    evaluating many witnesses of the same field.
    """

    def __init__(self, f, table, delta):
        _require_positive(f)
        self.f = f
        self.grid = f.grid
        self.table = table
        self.delta = default_delta(f.grid) if delta is None else delta
        self.coeffs = harmonics.require_coeffs(f)
        self.grad = harmonics.grid_gradient(f)
        self.V = self.grad - f.values[:, None] * self.grid.nodes
        e1, e2 = tangent_bases(self.grid.nodes)
        self._bases = (e1, e2)
        self._hess = None

    def _grid_hessians(self):
        if self._hess is None:
            H = harmonics.grid_hessian(self.f, bases=self._bases)
            e1, e2 = self._bases
            # ambient 3x3 form E H E^T acting on tangent vectors
            E = np.stack([e1, e2], axis=2)  # (N, 3, 2)
            self._hess = np.einsum("nik,nkl,njl->nij", E, H, E)
        return self._hess

    def _point_data(self, x):
        """(f(x), grad f(x), ambient Hessian form) with node fast path."""
        grid = self.grid
        s = grid.nodes @ x
        i = int(np.argmax(s))
        if s[i] > 1.0 - 1e-14:
            return float(self.f.values[i]), self.grad[i], self._grid_hessians()[i]
        fx = float(harmonics.synthesize_at(self.coeffs, x[None, :])[0])
        gx = harmonics.gradient_at(self.coeffs, x[None, :])[0]
        H2 = harmonics.sphere_hessian(self.coeffs, x)
        from .sphere import tangent_basis

        e1, e2 = tangent_basis(x)
        E = np.stack([e1, e2], axis=1)
        return fx, gx, E @ H2 @ E.T

    def cr1_forms(self, x, fx=None, gx=None, Hx=None):
        """CR1(x, xi) = xi^T S xi for the full and half excluded caps.

        The excluded cap is restored to second order by the local model
        -pi delta^2 (Hess f(xi, xi) - f(x)), derived from the kernel
        asymptotics omega ~ -2/rho^2 near the witness.
        """
        grid = self.grid
        s = grid.nodes @ x
        if fx is None:
            fx, gx, Hx = self._point_data(x)
        Vx = gx - fx * x
        dV = self.V - Vx[None, :]
        outer = s <= np.cos(self.delta)
        half_ann = (~outer) & (s <= np.cos(0.5 * self.delta))
        w = grid.weights * self.table.omega(np.where(outer | half_ann, s, 0.0))

        def form(mask):
            Z = grid.nodes[mask]
            S = (Z * w[mask][:, None]).T @ dV[mask]
            return 0.5 * (S + S.T)

        proj = np.eye(3) - np.outer(x, x)
        cap = -(np.pi) * (Hx - fx * proj)
        S_sum = form(outer)
        S_full = S_sum + self.delta**2 * cap
        S_half = S_sum + form(half_ann) + (0.5 * self.delta) ** 2 * cap
        return S_full, S_half, fx

    def cr2_forms(self, x, fx=None, gx=None, Hx=None):
        """CR2(x, xi) = const + xi^T M xi + f(x)/2, full and half caps.

        Cap model: delta^2 (tr Hess f - 2 Hess f(xi, xi)) / 16, from
        hat_omega ~ (1/2 - cos^2 psi)/(pi rho^2) near the witness.
        """
        grid = self.grid
        s = grid.nodes @ x
        if fx is None:
            fx, gx, Hx = self._point_data(x)
        resid = self.f.values - fx - grid.nodes @ gx
        outer = s <= np.cos(self.delta)
        half_ann = (~outer) & (s <= np.cos(0.5 * self.delta))
        both = outer | half_ann
        A = self.table.hat_A(np.where(both, s, 0.0))
        B = self.table.hat_B(np.where(both, s, 0.0))
        wr = grid.weights * resid

        def form(mask):
            Z = grid.nodes[mask]
            const = float(wr[mask] @ A[mask])
            M = -3.0 * (Z * (wr[mask] * B[mask])[:, None]).T @ Z
            return const, 0.5 * (M + M.T)

        proj = np.eye(3) - np.outer(x, x)
        tr = Hx[0, 0] + Hx[1, 1] + Hx[2, 2]  # ambient trace = tangent trace
        cap = (tr * proj - 2.0 * Hx) / 16.0
        c_full, M_sum = form(outer)
        M_full = M_sum + self.delta**2 * cap
        c_ann, M_ann = form(half_ann)
        M_half = M_sum + M_ann + (0.5 * self.delta) ** 2 * cap
        return (c_full, M_full), (c_full + c_ann, M_half), fx

    def cr1_value(self, x, xi) -> float:
        xc = point_coords(x)
        S_full, _, _ = self.cr1_forms(xc)
        xic = direction_coords(xi)
        return float(xic @ S_full @ xic)

    def cr2_value(self, x, xi) -> float:
        xc = point_coords(x)
        (c_full, M_full), _, fx = self.cr2_forms(xc)
        xic = direction_coords(xi)
        return float(c_full + xic @ M_full @ xic + fx / 2.0)


def _min_eig2(a, b, d):
    """Smaller eigenvalue of the symmetric 2x2 matrices [[a, b], [b, d]],
    elementwise over arrays."""
    return 0.5 * (a + d) - np.sqrt(0.25 * (a - d) ** 2 + b * b)


def _tangent_min(S, e1, e2):
    """Exact minimum of xi^T S xi over unit xi in span(e1, e2), with argmin."""
    E = np.stack([e1, e2], axis=1)
    T = E.T @ S @ E
    lam = _min_eig2(T[0, 0], T[0, 1], T[1, 1])
    v = np.array([T[0, 1], lam - T[0, 0]])
    n = np.linalg.norm(v)
    if n < 1e-300:
        v = np.array([1.0, 0.0]) if T[0, 0] <= T[1, 1] else np.array([0.0, 1.0])
    else:
        v = v / n
    return float(lam), v[0] * e1 + v[1] * e2


def sweep(
    f,
    criterion: Criterion | str,
    table=kernels.DEFAULT_TABLE,
    delta: float | None = None,
) -> ConvexityReport:
    """Evaluate a criterion at every grid node, minimized over all tangent
    directions.

    At each node the criterion is a quadratic form in xi, so its minimum
    over unit tangent xi and the minimizing direction are exact (see
    _tangent_min); the witness is the node and direction of the smallest
    value.  Verdicts are banded: |margin| below 10x the estimated quadrature
    error is inconclusive rather than a sign claim.
    """
    crit = Criterion(criterion) if not isinstance(criterion, Criterion) else criterion
    eng = CriterionEngine(f, table, delta)
    grid = f.grid
    e1s, e2s = tangent_bases(grid.nodes)

    hess = eng._grid_hessians()
    best = np.inf
    best_node = 0
    best_dir = None
    best_err = 0.0
    for i in range(grid.node_count):
        x = grid.nodes[i]
        fx, gx, Hx = eng.f.values[i], eng.grad[i], hess[i]
        if crit is Criterion.CR1:
            S_full, S_half, _ = eng.cr1_forms(x, fx, gx, Hx)
            c_full = c_half = 0.0
            shift = 0.0
        else:
            (c_full, S_full), (c_half, S_half), _ = eng.cr2_forms(x, fx, gx, Hx)
            shift = fx / 2.0
        lam, ximin = _tangent_min(S_full, e1s[i], e2s[i])
        val = lam + c_full + shift
        if val < best:
            lam_h, _ = _tangent_min(S_half, e1s[i], e2s[i])
            val_h = lam_h + c_half + shift
            best = val
            best_node = i
            best_dir = ximin
            best_err = 2.0 * abs(val - val_h)
    wx = SpherePoint(grid.nodes[best_node])
    witness = (wx, TangentDirection(wx, best_dir))
    band = max(best_err, 1e-12 * max(1.0, float(np.max(np.abs(f.values)))))
    if best > 10.0 * band:
        verdict = "holds"
    elif best < -10.0 * band:
        verdict = "fails"
    else:
        verdict = "inconclusive"
    name = crit.value
    return ConvexityReport(
        verdicts={name: verdict},
        min_margin={name: best},
        witness={name: witness},
        error_band={name: band},
        grid_meta={"L": grid.L, "delta": eng.delta},
    )


# ----------------------------------------------------------------------
# Direct ground truth and classical sufficient conditions
# ----------------------------------------------------------------------

def hessian_min(u):
    """Minimum over grid nodes of the smaller eigenvalue of Hess u + u I.

    The direct convexity test for a candidate support function u.
    Returns (min_eig, witness SpherePoint).
    """
    H = harmonics.grid_hessian(u)
    mins = _min_eig2(H[:, 0, 0] + u.values, H[:, 0, 1], H[:, 1, 1] + u.values)
    i = int(np.argmin(mins))
    return float(mins[i]), SpherePoint(u.grid.nodes[i])


def holder_seminorm(f, alpha: float, min_sep: float | None = None) -> float:
    """Grid estimate of the C^alpha seminorm: max of |f(x) - f(z)|/dist^alpha
    over node pairs separated by at least the grid spacing.

    This is a lower bound of the true seminorm, so threshold checks based on
    it are conservative only up to discretization.
    """
    grid = f.grid
    if min_sep is None:
        min_sep = np.pi / grid.L
    vals = f.values
    best = 0.0
    cos_min = np.cos(min_sep)
    for start in range(0, grid.node_count, 512):
        block = slice(start, min(start + 512, grid.node_count))
        dots = np.clip(grid.nodes[block] @ grid.nodes.T, -1.0, 1.0)
        ok = dots <= cos_min
        if not np.any(ok):
            continue
        dist = np.arccos(np.where(ok, dots, 0.0))
        num = np.abs(vals[block][:, None] - vals[None, :])
        ratio = np.where(ok, num / np.where(ok, dist, 1.0) ** alpha, 0.0)
        best = max(best, float(np.max(ratio)))
    return best


def check_T32(f, alpha: float, gamma: float | None = None):
    """Hoelder-threshold sufficient condition: |f|_{C^alpha} <= gamma min f.

    Returns (holds, lhs, rhs).  One-sided: holds=False makes no claim.
    """
    _require_positive(f)
    if gamma is None:
        gamma = kernels.gamma_const(2, alpha)
    lhs = holder_seminorm(f, alpha)
    rhs = gamma * float(np.min(f.values))
    return bool(lhs <= rhs), lhs, rhs


def check_T33(f, n_t: int = 12, n_xi: int = 4, tol: float = 1e-8):
    """Symmetry-monotonicity condition on the degree-(-1) extension:

        d_xi f(x + t xi) - d_xi f(x - t xi) <= 0  for all t > 0, xi _|_ x.

    Samples x over grid nodes, xi over n_xi tangent directions, t over a
    logarithmic grid in [1e-3, 1e3]; off-sphere evaluations reduce to sphere
    values by homogeneity.  Returns (holds, worst sampled value).
    """
    _require_positive(f)
    coeffs = harmonics.require_coeffs(f)
    grid = f.grid
    e1s, e2s = tangent_bases(grid.nodes)
    ts = np.geomspace(1e-3, 1e3, n_t)
    # the tested expression is even in xi, so a half circle of directions
    angles = np.pi * np.arange(n_xi) / n_xi
    N = grid.node_count
    xis = (
        np.cos(angles)[:, None, None] * e1s[None, :, :]
        + np.sin(angles)[:, None, None] * e2s[None, :, :]
    )  # (n_xi, N, 3)
    scale = np.sqrt(1.0 + ts**2)
    # query points (n_xi, n_t, 2, N, 3): x +- t xi, radially normalized
    pts = (
        grid.nodes[None, None, None, :, :]
        + np.array([1.0, -1.0])[None, None, :, None, None]
        * ts[None, :, None, None, None]
        * xis[:, None, None, :, :]
    ) / scale[None, :, None, None, None]
    flat = pts.reshape(-1, 3)
    vals, grad = harmonics.values_and_gradient_at(coeffs, flat)
    grad = grad.reshape(n_xi, n_t, 2, N, 3)
    vals = vals.reshape(n_xi, n_t, 2, N)
    radial = (
        np.array([1.0, -1.0])[None, None, :, None]
        * ts[None, :, None, None]
        / scale[None, :, None, None]
    )
    d = (
        np.sum(grad * xis[:, None, None, :, :], axis=-1) - vals * radial
    ) / (scale**2)[None, :, None, None]
    worst = float(np.max(d[:, :, 0, :] - d[:, :, 1, :]))
    return bool(worst <= tol), worst


def check_pogorelov(f):
    """Arc-length condition f - f_ss > 0 on S^2 (two dimensions).

    f_ss along xi is the (xi, xi) entry of the covariant Hessian, so the
    minimum over directions is f minus the largest Hessian eigenvalue.
    Returns (holds, min value).
    """
    _require_positive(f)
    H = harmonics.grid_hessian(f)
    hess_max = -_min_eig2(-H[:, 0, 0], -H[:, 0, 1], -H[:, 1, 1])
    min_val = float(np.min(f.values - hess_max))
    return bool(min_val > 0.0), min_val


def check_guan_ma(f, band_factor: int = 2):
    """Constant-rank condition: Hess(1/f) + (1/f) I >= 0 on S^2.

    1/f is re-analyzed at ``band_factor`` times the field's band limit to
    absorb the nonlinearity, on an internal finer grid when the field's own
    grid cannot support that band.  Returns (holds, min eigenvalue).
    """
    _require_positive(f)
    coeffs = harmonics.require_coeffs(f)
    L_target = band_factor * coeffs.L_max
    grid = f.grid
    if grid.L < L_target + 1:
        grid = make_grid(L_target + 2)
        vals = 1.0 / harmonics.synthesize_at(coeffs, grid.nodes)
    else:
        vals = 1.0 / f.values
    inv = harmonics.SphericalField(grid=grid, values=vals)
    inv = harmonics.SphericalField(grid=grid, values=vals,
                                   coeffs=harmonics.analyze(inv, L_target))
    H = harmonics.grid_hessian(inv)
    mins = _min_eig2(H[:, 0, 0] + inv.values, H[:, 0, 1], H[:, 1, 1] + inv.values)
    min_eig = float(np.min(mins))
    return bool(min_eig >= -1e-8), min_eig
