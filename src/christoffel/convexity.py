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

Grid sweeps are ring correlations.  On the Gauss-Legendre x uniform-azimuth
grid, <x, z> for x on ring i and z on ring k depends only on (i, k) and the
azimuth offset d (:func:`ring_cosines`).  Each form is a sum of masked zonal
kernels against fixed moments of the data (the subtracted expansion at x
enters after the sums, the same quadrature up to rounding), so over all
nodes it is a cyclic correlation in azimuth, one FFT per ring pair; see
Driscoll & Healy 1994, "Computing Fourier transforms and convolutions on
the 2-sphere".  The Hoelder estimate reads its separations from the same
table, and the T33 samples of a ring are one rotated set, evaluated
ring-wise by :func:`christoffel.harmonics._orbit_values_and_slopes`.

Ground truth: hessian_min checks min eig(Hess u + u I) directly on the
spectral solution.  The classical sufficient conditions (Hoelder threshold,
symmetry monotonicity, Pogorelov, Guan-Ma) are provided as checkers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from . import harmonics, kernels
from .errors import NotPositive
from .sphere import (
    SpherePoint,
    TangentDirection,
    direction_coords,
    make_grid,
    point_coords,
    tangent_basis,
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


def ring_cosines(grid) -> np.ndarray:
    """Table s[i, k, d] = <x, z> for x on ring i and z on ring k, d azimuth
    steps apart, shape (L, L, 2L).

    Every cap mask and node separation of the grid sweeps is read from this
    one table, so the node-by-node and the ring-by-ring paths classify each
    pair of nodes the same way.
    """
    t = grid.polar_nodes
    st = np.sqrt(1.0 - t * t)
    return np.multiply.outer(np.outer(st, st), np.cos(grid.phis)) + np.outer(t, t)[:, :, None]


def _ring_correlate(kernel_rings, data):
    """Ring-by-ring cyclic correlation in azimuth, summed over rings:

        out[..., i, j, c] = sum_{k, j'} kernel_rings[..., i, k, (j' - j) mod 2L] data[k, j', c]

    ``kernel_rings`` is (..., L, L, 2L), ``data`` is (L, 2L, C).  One real
    FFT per ring pair and per data channel, a product per azimuthal order,
    one inverse FFT per ring.
    """
    n = data.shape[1]
    K = np.moveaxis(np.fft.rfft(kernel_rings, axis=-1), -1, -3).conj()  # (..., m, i, k)
    D = np.fft.rfft(data, axis=1).transpose(1, 0, 2)  # (m, k, c)
    return np.fft.irfft(np.moveaxis(K @ D, -3, -2), n, axis=-2)


# packed symmetric 3x3 matrices: entries (0,0) (0,1) (0,2) (1,1) (1,2) (2,2)
_SYM_ROWS, _SYM_COLS = np.triu_indices(3)
_SYM_FULL = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


class CriterionEngine:
    """Shared precomputation for witness evaluations on one field.

    Produces, per witness point x, symmetric 3x3 forms S (and constants)
    such that the criterion value at (x, xi) is const + xi^T S xi, for the
    full excluded cap and for the half-radius cap.  Each form is assembled
    from kernel moments sum_z w(z) K(<x, z>) g(z) of fixed data channels g
    over the cap-excluded nodes; :meth:`cr1_forms` / :meth:`cr2_forms` sum
    them for one witness, :meth:`grid_forms` for every node at once as ring
    correlations.  Reuse one engine when evaluating many witnesses of the
    same field; :func:`sweep`, :func:`check_T32` and :func:`check_pogorelov`
    take one, so a ``check`` forms the grid gradient and Hessian of f and
    the ring table once.
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

    @cached_property
    def ring_cosines(self):
        """The :func:`ring_cosines` table of the grid."""
        return ring_cosines(self.grid)

    @cached_property
    def tangent_hessians(self):
        """Covariant Hessian of f at every node in the engine's tangent
        bases, (N, 2, 2)."""
        return harmonics.grid_hessian(self.f, bases=self._bases)

    @cached_property
    def _ambient_hessians(self):
        """Ambient 3x3 forms E H E^T of the Hessians, acting on tangent
        vectors."""
        e1, e2 = self._bases
        E = np.stack([e1, e2], axis=2)  # (N, 3, 2)
        return np.einsum("nik,nkl,njl->nij", E, self.tangent_hessians, E)

    def _witness(self, x):
        """(<x, z> over the nodes z, f(x), grad f(x), ambient Hessian form).

        A node witness takes its data from the grid and its cosines from the
        ring table, so it sees exactly the cap masks of :meth:`grid_forms`.
        """
        grid = self.grid
        s = grid.nodes @ x
        i = int(np.argmax(s))
        if s[i] > 1.0 - 1e-14:
            ring, az = divmod(i, grid.azimuth_count)
            offsets = (np.arange(grid.azimuth_count) - az) % grid.azimuth_count
            s = self.ring_cosines[ring][:, offsets].ravel()
            return s, float(self.f.values[i]), self.grad[i], self._ambient_hessians[i]
        fx = float(harmonics.synthesize_at(self.coeffs, x[None, :])[0])
        gx = harmonics.gradient_at(self.coeffs, x[None, :])[0]
        H2 = harmonics.sphere_hessian(self.coeffs, x)
        e1, e2 = tangent_basis(x)
        E = np.stack([e1, e2], axis=1)
        return s, fx, gx, E @ H2 @ E.T

    def _channels(self, crit):
        """[(kernel, data channels (N, C))] of a criterion.

        CR1 sums omega against z (x) V (9 channels) and z (3).  CR2 sums
        hat_A against f, 1 and z (5), and hat_B against f zz^T, zz^T and
        z_c zz^T (6 + 6 + 18, symmetric matrices packed).
        """
        Z = self.grid.nodes
        if crit is Criterion.CR1:
            g = np.concatenate([(Z[:, :, None] * self.V[:, None, :]).reshape(-1, 9), Z], axis=1)
            return [(self.table.omega, g)]
        f = self.f.values
        ZZ = Z[:, _SYM_ROWS] * Z[:, _SYM_COLS]
        g_A = np.column_stack([f, np.ones_like(f), Z])
        g_B = np.concatenate(
            [f[:, None] * ZZ, ZZ, (Z[:, :, None] * ZZ[:, None, :]).reshape(-1, 18)], axis=1
        )
        return [(self.table.hat_A, g_A), (self.table.hat_B, g_B)]

    def _kernel_weights(self, kernel, s, w):
        """w K(s) on the outer domain s <= cos(delta) and on the half annulus
        cos(delta) < s <= cos(delta / 2); zero elsewhere."""
        outer = s <= np.cos(self.delta)
        half_ann = (~outer) & (s <= np.cos(0.5 * self.delta))
        K = w * kernel(np.where(outer | half_ann, s, 0.0))
        return np.stack([np.where(outer, K, 0.0), np.where(half_ann, K, 0.0)])

    def _assemble(self, crit, moments, X, fx, gx, Hx):
        """Forms at witnesses X (n, 3) from their kernel moments (2, n, C),
        outer domain first, then half annulus.

        Returns ((c_full, S_full), (c_half, S_half)): the criterion value at
        (x, xi) is c + xi^T S xi, plus f(x)/2 for CR2.  The excluded cap is
        restored to second order by a local model: -pi delta^2 (Hess f(xi, xi)
        - f(x)) for CR1, from omega ~ -2/rho^2 near the witness, and
        delta^2 (tr Hess f - 2 Hess f(xi, xi)) / 16 for CR2, from
        hat_omega ~ (1/2 - cos^2 psi)/(pi rho^2).
        """
        proj = np.eye(3) - X[:, :, None] * X[:, None, :]
        if crit is Criterion.CR1:
            # sum w omega z (x) (V(z) - V(x))
            Vx = gx - fx[:, None] * X
            S = moments[..., :9].reshape(2, -1, 3, 3) - moments[..., 9:, None] * Vx[:, None, :]
            S = 0.5 * (S + np.swapaxes(S, -1, -2))
            c = np.zeros((2, len(X)))
            cap = -np.pi * (Hx - fx[:, None, None] * proj)
        else:
            # sum w hat (f(z) - f(x) - <z, grad f(x)>) [1, -3 zz^T]
            c = moments[..., 0] - fx * moments[..., 1] - np.sum(moments[..., 2:5] * gx, axis=-1)
            P = (
                moments[..., 5:11]
                - fx[:, None] * moments[..., 11:17]
                - np.einsum("nc,...ncp->...np", gx, moments[..., 17:].reshape(2, -1, 3, 6))
            )
            S = -3.0 * P[..., _SYM_FULL]
            tr = np.trace(Hx, axis1=1, axis2=2)  # ambient trace = tangent trace
            cap = (tr[:, None, None] * proj - 2.0 * Hx) / 16.0
        full = (c[0], S[0] + self.delta**2 * cap)
        half = (c[0] + c[1], S[0] + S[1] + (0.5 * self.delta) ** 2 * cap)
        return full, half

    def _forms_at(self, crit, x):
        s, fx, gx, Hx = self._witness(x)
        moments = np.concatenate(
            [self._kernel_weights(kernel, s, self.grid.weights) @ g
             for kernel, g in self._channels(crit)],
            axis=-1,
        )[:, None, :]
        (c_full, S_full), (c_half, S_half) = self._assemble(
            crit, moments, x[None, :], np.array([fx]), gx[None, :], Hx[None]
        )
        return (float(c_full[0]), S_full[0]), (float(c_half[0]), S_half[0]), fx

    def grid_forms(self, crit):
        """Forms of :meth:`_assemble` at every grid node, arrays over nodes.

        On the Gauss-Legendre x uniform-azimuth grid every kernel moment is a
        cyclic correlation in azimuth between the ring table of the masked
        kernel and the rings of the data (Driscoll & Healy 1994), so all
        nodes cost a few FFTs instead of one full grid sum each.
        """
        grid = self.grid
        L, n = grid.L, grid.azimuth_count
        s = self.ring_cosines
        w = grid.weights[::n][None, :, None]  # ring weight of z
        moments = np.concatenate(
            [_ring_correlate(self._kernel_weights(kernel, s, w), g.reshape(L, n, -1))
             for kernel, g in self._channels(crit)],
            axis=-1,
        ).reshape(2, grid.node_count, -1)
        return self._assemble(
            crit, moments, grid.nodes, self.f.values, self.grad, self._ambient_hessians
        )

    def cr1_forms(self, x):
        """CR1(x, xi) = xi^T S xi; returns (S_full, S_half, f(x))."""
        (_, S_full), (_, S_half), fx = self._forms_at(Criterion.CR1, x)
        return S_full, S_half, fx

    def cr2_forms(self, x):
        """CR2(x, xi) = const + xi^T M xi + f(x)/2; returns
        ((c_full, M_full), (c_half, M_half), f(x))."""
        return self._forms_at(Criterion.CR2, x)

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


def _check_engine(f, engine):
    if engine is not None and engine.f is not f:
        raise ValueError("the engine was built for another field")


def _min_eig2(a, b, d):
    """Smaller eigenvalue of the symmetric 2x2 matrices [[a, b], [b, d]],
    elementwise over arrays."""
    return 0.5 * (a + d) - np.sqrt(0.25 * (a - d) ** 2 + b * b)


def _tangent_mins(S, e1, e2):
    """Minimum of xi^T S xi over unit xi in span(e1, e2), for stacks of
    forms S (n, 3, 3) and bases (n, 3)."""
    Se1 = np.einsum("nij,nj->ni", S, e1)
    Se2 = np.einsum("nij,nj->ni", S, e2)
    return _min_eig2(np.sum(e1 * Se1, axis=1), np.sum(e2 * Se1, axis=1), np.sum(e2 * Se2, axis=1))


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
    engine: CriterionEngine | None = None,
) -> ConvexityReport:
    """Evaluate a criterion at every grid node, minimized over all tangent
    directions.

    The forms of all nodes come from ring correlations
    (:meth:`CriterionEngine.grid_forms`).  At each node the criterion is a
    quadratic form in xi, so its minimum over unit tangent xi is the smaller
    eigenvalue of a 2x2 matrix; the witness is the node of the smallest
    value (the first in node order on a tie; nodes that are mirror images
    of each other tie up to rounding, so which of them is reported can
    change with the summation order) and its exact minimizing direction.
    Verdicts are banded: |margin| below 10x the estimated quadrature error,
    the full-cap minus half-cap difference at the witness node, is
    inconclusive rather than a sign claim.  ``engine``, an engine of f
    built with ``table`` and ``delta``, lends its grid data; without one, a
    new engine is built.
    """
    crit = Criterion(criterion) if not isinstance(criterion, Criterion) else criterion
    _check_engine(f, engine)
    eng = CriterionEngine(f, table, delta) if engine is None else engine
    grid = f.grid
    e1s, e2s = eng._bases
    (c_full, S_full), (c_half, S_half) = eng.grid_forms(crit)
    shift = f.values / 2.0 if crit is Criterion.CR2 else 0.0
    vals = _tangent_mins(S_full, e1s, e2s) + c_full + shift
    vals_half = _tangent_mins(S_half, e1s, e2s) + c_half + shift
    i = int(np.argmin(vals))
    best = float(vals[i])
    _, best_dir = _tangent_min(S_full[i], e1s[i], e2s[i])
    wx = SpherePoint(grid.nodes[i])
    witness = (wx, TangentDirection(wx, best_dir))
    band = max(2.0 * abs(best - float(vals_half[i])),
               1e-12 * max(1.0, float(np.max(np.abs(f.values)))))
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


def holder_seminorm(f, alpha: float, min_sep: float | None = None,
                    cosines: np.ndarray | None = None) -> float:
    """Grid estimate of the C^alpha seminorm: max of |f(x) - f(z)|/dist^alpha
    over node pairs separated by at least the grid spacing.

    Separations and dist^alpha come from the shared ring table
    (:func:`ring_cosines`, or ``cosines`` when given), one entry per (ring,
    ring, azimuth offset); the pairs only take value differences.  This is
    a lower bound of the true seminorm, so threshold checks based on it are
    conservative only up to discretization.
    """
    grid = f.grid
    if min_sep is None:
        min_sep = np.pi / grid.L
    s = ring_cosines(grid) if cosines is None else cosines
    ok = s <= np.cos(min_sep)
    dist_a = np.where(ok, np.arccos(np.clip(s, -1.0, 1.0)), 1.0) ** alpha
    n = grid.azimuth_count
    F = f.values.reshape(grid.L, n)
    shifted = F[:, (np.arange(n)[:, None] + np.arange(n)[None, :]) % n]  # [k, j, d] = f(k, j + d)
    best = 0.0
    for i in range(grid.L):
        # rings k >= i: the pairs with ring k < i were taken at ring k
        num = np.max(np.abs(F[i][None, :, None] - shifted[i:]), axis=1)  # (k, d): max over j
        best = max(best, float(np.max(np.where(ok[i, i:], num / dist_a[i, i:], 0.0))))
    return best


def check_T32(f, alpha: float, gamma: float | None = None,
              engine: CriterionEngine | None = None):
    """Hoelder-threshold sufficient condition: |f|_{C^alpha} <= gamma min f.

    The ring table of a given ``engine`` of f is reused.  Returns (holds,
    lhs, rhs).  One-sided: holds=False makes no claim.
    """
    _require_positive(f)
    _check_engine(f, engine)
    if gamma is None:
        gamma = kernels.gamma_const(2, alpha)
    lhs = holder_seminorm(f, alpha, cosines=None if engine is None else engine.ring_cosines)
    rhs = gamma * float(np.min(f.values))
    return bool(lhs <= rhs), lhs, rhs


def _t33_samples(coeffs, grid, ts, angles):
    """f and <grad f, xi> at (x +- t xi) / sqrt(1 + t^2) for every node x,
    t in ``ts`` and xi = cos(a) e_theta(x) + sin(a) e_phi(x), a in ``angles``.

    The samples of a ring are its azimuth-0 samples rotated about the
    z-axis, together with their xi, so only the 2 n_t n_xi L azimuth-0
    points are evaluated, each with its whole orbit and its slope along xi.
    Returns (values, directional derivatives), each (n_xi, n_t, 2, N) in
    node order.
    """
    t = grid.polar_nodes
    st = np.sqrt(1.0 - t * t)
    zero, one = np.zeros_like(t), np.ones_like(t)
    x0 = np.stack([st, zero, t], axis=1)  # the azimuth-0 node of each ring
    e_th = np.stack([t, zero, -st], axis=1)
    e_ph = np.stack([zero, one, zero], axis=1)
    xis = np.cos(angles)[:, None, None] * e_th + np.sin(angles)[:, None, None] * e_ph
    signs = np.array([1.0, -1.0])
    step = (signs[None, :] * ts[:, None])[None, :, :, None, None] * xis[:, None, None]
    pts = (x0 + step) / np.sqrt(1.0 + ts**2)[None, :, None, None, None]  # (n_xi, n_t, 2, L, 3)
    xi_p = np.broadcast_to(xis[:, None, None], pts.shape).reshape(-1, 3)
    vals, dxi = harmonics._orbit_values_and_slopes(coeffs, pts.reshape(-1, 3), xi_p,
                                                   grid.azimuth_count)
    shape = pts.shape[:3] + (grid.node_count,)
    return vals.reshape(shape), dxi.reshape(shape)


def check_T33(f, n_t: int = 12, n_xi: int = 4, rtol: float = 1e-8):
    """Symmetry-monotonicity condition on the degree-(-1) extension:

        d_xi f(x + t xi) - d_xi f(x - t xi) <= 0  for all t > 0, xi _|_ x.

    Samples x over grid nodes, xi at the n_xi angles pi k / n_xi in the
    (e_theta, e_phi) frame of x, t over a logarithmic grid in [1e-3, 1e3];
    off-sphere evaluations reduce to sphere values by homogeneity.  The
    samples of a ring are one set rotated about the z-axis, so theta
    profiles are taken at 2 n_t n_xi L points, from L_max + 2 Legendre
    colatitudes, and one azimuth FFT per point gives values and slopes on
    all N nodes (:func:`_t33_samples`).  Returns (holds, worst sampled
    value); holds when worst <= rtol * max|f|.
    """
    _require_positive(f)
    coeffs = harmonics.require_coeffs(f)
    ts = np.geomspace(1e-3, 1e3, n_t)
    # the tested expression is even in xi, so a half circle of directions
    angles = np.pi * np.arange(n_xi) / n_xi
    vals, dxi = _t33_samples(coeffs, f.grid, ts, angles)
    scale = np.sqrt(1.0 + ts**2)
    radial = np.array([1.0, -1.0])[None, :, None] * (ts / scale)[:, None, None]
    d = (dxi - vals * radial) / (scale**2)[:, None, None]
    worst = float(np.max(d[:, :, 0] - d[:, :, 1]))
    return bool(worst <= rtol * float(np.max(np.abs(f.values)))), worst


def check_pogorelov(f, engine: CriterionEngine | None = None):
    """Arc-length condition f - f_ss > 0 on S^2 (two dimensions).

    f_ss along xi is the (xi, xi) entry of the covariant Hessian, so the
    minimum over directions is f minus the largest Hessian eigenvalue; the
    Hessians of a given ``engine`` of f are reused.  Returns (holds, min
    value).
    """
    _require_positive(f)
    _check_engine(f, engine)
    H = harmonics.grid_hessian(f) if engine is None else engine.tangent_hessians
    hess_max = -_min_eig2(-H[:, 0, 0], -H[:, 0, 1], -H[:, 1, 1])
    min_val = float(np.min(f.values - hess_max))
    return bool(min_val > 0.0), min_val


def check_guan_ma(f, band_factor: int = 2):
    """Constant-rank condition: Hess(1/f) + (1/f) I >= 0 on S^2.

    1/f is re-analyzed at ``band_factor`` times the field's band limit to
    absorb the nonlinearity, on an internal finer grid when the field's own
    grid cannot support that band.  Returns (holds, min eigenvalue); holds
    when the minimum is at least -1e-8 max|1/f|.
    """
    _require_positive(f)
    coeffs = harmonics.require_coeffs(f)
    L_target = band_factor * coeffs.L_max
    grid = f.grid
    if grid.L < L_target + 1:
        grid = make_grid(L_target + 2)
        vals = 1.0 / harmonics.synthesize(coeffs, grid).values
    else:
        vals = 1.0 / f.values
    inv = harmonics.SphericalField(grid=grid, values=vals)
    inv = harmonics.SphericalField(grid=grid, values=vals,
                                   coeffs=harmonics.analyze(inv, L_target))
    H = harmonics.grid_hessian(inv)
    mins = _min_eig2(H[:, 0, 0] + inv.values, H[:, 0, 1], H[:, 1, 1] + inv.values)
    min_eig = float(np.min(mins))
    return bool(min_eig >= -1e-8 * float(np.max(np.abs(vals)))), min_eig
