"""Convexity criteria for solutions of the sphere Laplace problem.

The paper's two necessary-and-sufficient criteria are integrals of the
fundamental-solution ray kernels against the data f:

* CR1: int_{S^2} omega(<x,z>) <xi,z> <Df(z), xi> dz >= 0 for every witness
  (x, xi), with omega(s) = -1/(1 - s) and Df = grad f - f z the gradient of
  the degree-(-1) extension of f.  The value is omega_2 = 4 pi times the
  second derivative <U(x) xi, xi> of the solution's 1-homogeneous
  extension, U = Hess u + u I.
* CR2: int_{S^2} hat_omega(x,xi,z) (f(z) - f(x)) dz + f(x)/2 >= 0, with
  hat_omega = A(s) - 3 <xi,z>^2 B(s) (:class:`kernels.ClosedFormKernelTable`);
  the value is <U(x) xi, xi> itself.

f is band-limited, so by the Funk-Hecke theorem each integral is diagonal
in the degree l (Mueller, "Spherical Harmonics", LNM 17, 1966; Atkinson &
Han, "Spherical Harmonics and Approximations on the Unit Sphere", LNM 2044,
2012).  With H_l the l-th harmonic number (H_0 = 0), D_l = 2 - l(l+1) and
[g]_l the degree-l part of g, both criteria are quadratic forms in xi:

    CR1(x, xi) = 4 pi xi^T (sum_l H_l [sym(z (x) V)]_l(x)) xi,      V = Df
    CR2(x, xi) = -sum_l H_l f_l(x) - f(x)/2
                 + 1/2 xi^T (sum_l D_l H_l [f z z^T]_l(x)) xi

from int_{-1}^1 (1 - P_l)/(1 - s) ds = 2 H_l and, for the hypersingular B,
the Hadamard finite part int_{-1}^1 (2 - s)(P_l - 1 + l(l+1)(1 - s)/2)
/ (1 - s)^2 ds = (l - 1)(l + 2) H_l.  The finite-part constants, the
subtracted f(x), <z, grad f(x)> and x (x) V(x), and the z z^T and
z_c z z^T moments act only along x, so they leave the tangent block.

The 6 packed channels sym(z (x) V) resp. f z z^T are spherical polynomials
of degree <= L_max + 2: they are formed on the Gauss grid of
:attr:`harmonics.HarmonicCoeffs.channel_field`, analyzed exactly at that
band, multiplied degree by degree (:func:`_multipliers`) and synthesized on
the grid of f or at any points (:func:`criterion_forms`).  The minimum over
unit tangent xi at a node is the smaller eigenvalue of a 2x2 matrix, in
closed form.  It does not depend on the tangent frame, so every node form
is read in the node's own (e_theta, e_phi) frame (:attr:`SphereGrid.frame`),
where the grid derivatives are formed.  The kernel quadrature of the integrals themselves stays in
the tests, as the oracle for these forms.

Ground truth: hessian_min checks min eig(Hess u + u I) directly on the
spectral solution, and :func:`route_gap` compares it node by node with the
sweeps.  The classical sufficient conditions (Hoelder threshold, symmetry
monotonicity, Pogorelov, Guan-Ma) are provided as checkers.  Pogorelov and
Guan-Ma read one 2x2 form per node of f's grid from f's kept grid gradient
and Hessian, Guan-Ma by the quotient rule, so neither needs another grid
or transform.  On S^2 symmetry monotonicity (T33) is the non-strict
Pogorelov condition (:func:`check_T33` gives the proof), so it is decided
from the same form and evaluates f at no point off the grid.  The Hoelder
grid seminorm reads its node separations from :func:`ring_cosines` and
finds the largest pair by bound and prune, evaluating only the (ring, ring,
azimuth offset) entries that triangle and range bounds cannot rule out.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import harmonics, kernels
from .errors import NotPositive
from .harmonics import _SYM_COLS, _SYM_FULL, _SYM_ROWS, HarmonicCoeffs
# tangent_bases is unused here; bench/tests/test_bench.py reads this binding
from .sphere import SpherePoint, TangentDirection, tangent_bases  # noqa: F401

# rounding-floor factor of the sweep error band (see :func:`sweep`)
_BAND_KAPPA = 4.0
# node differences per chunk of the Hoelder search (see :func:`holder_seminorm`)
_HOLDER_CHUNK = 1 << 18
# relative tolerance of the T33 and Guan-Ma verdicts on their form minima
_FORM_RTOL = 1e-8


class Criterion(Enum):
    CR1 = "cr1"
    CR2 = "cr2"


@dataclass(frozen=True)
class ConvexityReport:
    verdicts: dict
    min_margin: dict
    witness: dict
    error_band: dict
    grid_meta: dict
    node_margins: dict  # criterion -> (N,) minimum over tangent xi at each node


def _require_positive(f):
    if np.min(f.values) <= 0.0:
        raise NotPositive("field must be strictly positive at every node")


def ring_cosines(grid) -> np.ndarray:
    """Table s[i, k, d] = <x, z> for x on ring i and z on ring k, d azimuth
    steps apart, shape (L, L, 2L): every node separation of the Hoelder
    estimate, one entry per (ring, ring, azimuth offset)."""
    t = grid.polar_nodes
    st = np.sqrt(1.0 - t * t)
    s = np.multiply.outer(np.outer(st, st), np.cos(grid.phis))
    s += np.outer(t, t)[:, :, None]
    return s


def _harmonic_numbers(L_max: int) -> np.ndarray:
    """H_l for the degree l of every flat coefficient up to L_max, H_0 = 0."""
    H = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, L_max + 1))])
    return np.repeat(H, 2 * np.arange(L_max + 1) + 1)


def _multipliers(crit: Criterion, L_max: int) -> np.ndarray:
    """Per-degree multipliers mu_l of the tangent-form channels of a field
    of band L_max, flat up to band L_max + 2: 4 pi H_l for CR1 and
    D_l H_l / 2 for CR2."""
    band = L_max + 2
    H = _harmonic_numbers(band)
    if crit is Criterion.CR1:
        return 4.0 * np.pi * H
    return 0.5 * harmonics.operator_diagonal(band) * H


def criterion_forms(f, criterion: Criterion | str, points=None):
    """(c, S) with criterion(x, xi) = c(x) + xi^T S(x) xi for unit xi
    tangent at x: c (n,) and S (n, 3, 3), at the grid nodes of f, or at
    ``points`` (n, 3) when given.  c is zero for CR1.
    """
    crit = Criterion(criterion)
    coeffs = harmonics.require_coeffs(f)
    L_max = coeffs.L_max
    g = coeffs.channel_field
    Z = g.grid.nodes
    if crit is Criterion.CR1:
        V = g.gradient - g.values[:, None] * Z
        cols = 0.5 * (Z[:, _SYM_ROWS] * V[:, _SYM_COLS] + Z[:, _SYM_COLS] * V[:, _SYM_ROWS])
    else:
        cols = g.values[:, None] * Z[:, _SYM_ROWS] * Z[:, _SYM_COLS]
    mu = _multipliers(crit, L_max)
    channels = [HarmonicCoeffs(L_max=L_max + 2, c=mu * ch.c)
                for ch in harmonics.analyze_channels(g.grid, cols, L_max + 2)]

    def at(chs):
        if points is None:
            return np.stack([harmonics.synthesize(ch, f.grid).values for ch in chs], axis=-1)
        return harmonics.synthesize_at(chs, points)

    S = at(channels)[:, _SYM_FULL]
    if crit is Criterion.CR1:
        return np.zeros(len(S)), S
    scalar = HarmonicCoeffs(L_max=L_max, c=-(_harmonic_numbers(L_max) + 0.5) * coeffs.c)
    return at([scalar])[:, 0], S


def _min_eig2(a, b, d):
    """Smaller eigenvalue of the symmetric 2x2 matrices [[a, b], [b, d]],
    elementwise over arrays."""
    return 0.5 * (a + d) - np.sqrt(0.25 * (a - d) ** 2 + b * b)


def _tangent_form(S, e1, e2):
    """Entries (a, b, d) of xi^T S xi on span(e1, e2), for stacks of forms
    S (n, 3, 3) and bases (n, 3)."""
    Se1 = np.einsum("nij,nj->ni", S, e1)
    Se2 = np.einsum("nij,nj->ni", S, e2)
    return np.sum(e1 * Se1, axis=1), np.sum(e2 * Se1, axis=1), np.sum(e2 * Se2, axis=1)


def _form_min(a, b, d, e1, e2, c=0.0):
    """Minimum over unit xi of c + xi^T [[a, b], [b, d]] xi at every node,
    for forms (a, b, d) in the bases (e1, e2), the node i of the smallest
    (the first in node order on a tie) and its exact minimizing unit
    direction xi: (values, i, xi).  The direction is the eigenvector (h -
    r, b) if h = (a - d) / 2 <= 0, else (b, -h - r), r = sqrt(h^2 + b^2):
    neither sum cancels, so a nearly diagonal form keeps its direction."""
    vals = _min_eig2(a, b, d) + c
    i = int(np.argmin(vals))
    h, b = 0.5 * (a[i] - d[i]), b[i]
    r = np.hypot(h, b)
    v = np.array([h - r, b]) if h <= 0.0 else np.array([b, -h - r])
    n = np.linalg.norm(v)
    if n < 1e-300:
        v = np.array([1.0, 0.0]) if h <= 0.0 else np.array([0.0, 1.0])
    else:
        v = v / n
    return vals, i, v[0] * e1[i] + v[1] * e2[i]


def sweep(f, criterion: Criterion | str) -> ConvexityReport:
    """Evaluate a criterion at every grid node, minimized over all tangent
    directions.

    The forms of all nodes come from :func:`criterion_forms`.  At each node
    the criterion is a quadratic form in xi, so its minimum over unit
    tangent xi is the smaller eigenvalue of a 2x2 matrix; the witness is
    the node of the smallest value (the first in node order on a tie;
    nodes that are mirror images of each other tie up to rounding, so which
    of them is reported can change with the summation order) and its exact
    minimizing direction.

    The forms are exact for band-limited f, so the error band is a
    rounding floor: kappa eps (L_max + 3) max_l |mu_l| max|f|, with kappa =
    4, eps the float64 machine epsilon and mu_l the criterion's
    :func:`_multipliers` (the scalar multipliers H_l + 1/2 of CR2 are
    smaller).  It grows with the largest multiplier, as the rounding of the
    analyzed channels is amplified degree by degree.  On ellipsoids, bumps,
    constant and random fields at (L, L_max) from (17, 16) to (96, 64) it
    is at least 4x the largest gap, over all nodes, to min eig(Hess u + u I)
    (4 pi times that for CR1).  |margin| below 10x the band is inconclusive
    rather than a sign claim.
    """
    crit = Criterion(criterion)
    _require_positive(f)
    grid = f.grid
    e_th, e_ph = grid.frame.e_th, grid.frame.e_ph
    c, S = criterion_forms(f, crit)
    vals, i, best_dir = _form_min(*_tangent_form(S, e_th, e_ph), e_th, e_ph, c)
    best = float(vals[i])
    wx = SpherePoint(grid.nodes[i])
    L_max = f.coeffs.L_max
    band = float(_BAND_KAPPA * np.finfo(float).eps * (L_max + 3)
                 * np.max(np.abs(_multipliers(crit, L_max))) * np.max(np.abs(f.values)))
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
        witness={name: (wx, TangentDirection(wx, best_dir))},
        error_band={name: band},
        grid_meta={"L": grid.L},
        node_margins={name: vals},
    )


def route_gap(report: ConvexityReport, hessian_mins: np.ndarray) -> dict:
    """Largest gap over the nodes between the node minima of a sweep, as
    CR1 / (4 pi) resp. CR2, and ``hessian_mins``, min eig(Hess u + u I) at
    each node of the solution (:func:`hessian_min`).

    The criteria are built from f and the kernel multipliers, the Hessian
    from the solve; the paper says CR1 = 4 pi <U xi, xi> and CR2 = <U xi,
    xi>, so the gap is a self-check that should sit at rounding level,
    within the sweep's error band.
    """
    scale = {Criterion.CR1.value: 4.0 * np.pi, Criterion.CR2.value: 1.0}
    return {name: float(np.max(np.abs(vals / scale[name] - hessian_mins)))
            for name, vals in report.node_margins.items()}


# ----------------------------------------------------------------------
# Direct ground truth and classical sufficient conditions
# ----------------------------------------------------------------------

def hessian_min(u):
    """Minimum over grid nodes of the smaller eigenvalue of Hess u + u I.

    The direct convexity test for a candidate support function u.
    Returns (min_eig, witness SpherePoint, the (N,) smaller eigenvalue at
    every node).
    """
    H = u.hessian
    mins = _min_eig2(H[:, 0, 0] + u.values, H[:, 0, 1], H[:, 1, 1] + u.values)
    i = int(np.argmin(mins))
    return float(mins[i]), SpherePoint(u.grid.nodes[i]), mins


def holder_seminorm(f, alpha: float) -> float:
    """Grid estimate of the C^alpha seminorm: max of |f(x) - f(z)|/dist^alpha
    over node pairs separated by at least the grid spacing pi / L.

    With F[i, j] the value at ring i, azimuth j, the pairs form a table
    with one entry per (ring i, ring k >= i, azimuth offset d):
    v(i, k, d) = num(i, k, d) / dist^alpha, num(i, k, d) = max_j
    |F[i, j] - F[k, j + d]|, the separations from :func:`ring_cosines`.
    The maximum is found by bound and prune, as in Lipschitz global
    optimization (Hansen & Jaumard, "Lipschitz optimization", 1995), not by
    forming all O(L^2 n^2) differences:

    * Seeds: the same-ring entries A_i(d) = num(i, i, d), symmetric in d so
      half of them are formed, and the same-azimuth entries
      D0(i, k) = num(i, k, 0) are evaluated; their maximum is the first
      ``best``.
    * Bound: num(i, k, d) <= min(R_ik, (D0(i, k) + min(A_i(d), A_k(d)))
      (1 + 1e-12)), with R_ik = max(max F_i - min F_k, max F_k - min F_i)
      the range of the two rings and the second term the triangle
      inequality through node (i, j + d) or (k, j).
    * Search: the entries whose bound / dist^alpha exceeds ``best`` are
      evaluated in descending bound order, ``_HOLDER_CHUNK`` differences
      at a time, each chunk re-pruned against ``best``; the search stops
      at the first bound that does not exceed it.

    The result is the full table's maximum to the last bit: evaluated
    entries use the same float expression, rounding is monotone, and the
    1e-12 margin covers the rounding of the bound's sum, so every pruned
    entry has v <= bound <= best.  dist^alpha overwrites the separations in
    place and the seeds and bounds are formed ring by ring, so the memory
    is about one (L, L, n) table.

    The grid value is a lower bound of the true seminorm, so threshold
    checks based on it are conservative only up to discretization.
    """
    grid = f.grid
    L, n = grid.L, grid.azimuth_count
    F = f.values.reshape(L, n)
    # [k, d, j] = F[k, j + d]: ring k turned by d azimuth steps, a view
    shifted = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([F, F[:, :-1]], axis=1), n, axis=1)
    fold = np.minimum(np.arange(n), n - np.arange(n))  # A_i(d) = A_i(n - d)
    cos_min = np.cos(np.pi / L)
    dist = ring_cosines(grid)  # dist^alpha for k >= i, inf below the spacing
    A = np.empty((L, n))
    D0 = np.empty((L, L))
    best = 0.0
    for i in range(L):
        s = dist[i, i:]
        d_a = np.arccos(np.clip(s, -1.0, 1.0)) ** alpha
        d_a[s > cos_min] = np.inf
        s[...] = d_a
        A[i] = np.max(np.abs(F[i] - shifted[i, : n // 2 + 1]), axis=1)[fold]
        D0[i, i:] = np.max(np.abs(F[i] - F[i:]), axis=1)
        best = max(best, float(np.max(A[i] / d_a[0])), float(np.max(D0[i, i:] / d_a[:, 0])))
    hi, lo = np.max(F, axis=1), np.min(F, axis=1)
    flat, bound = [], []
    for i in range(L):
        tri = (D0[i, i:, None] + np.minimum(A[i], A[i:])) * (1.0 + 1e-12)
        rng = np.maximum(hi[i] - lo[i:], hi[i:] - lo[i])
        ub = (np.minimum(rng[:, None], tri) / dist[i, i:]).ravel()
        keep = np.flatnonzero(ub > best)
        flat.append(keep + i * (L + 1) * n)
        bound.append(ub[keep])
    bound = np.concatenate(bound)
    order = np.argsort(bound)[::-1]
    flat, bound = np.concatenate(flat)[order], bound[order]
    step = max(1, _HOLDER_CHUNK // n)
    for start in range(0, len(flat), step):
        if bound[start] <= best:
            break
        sel = flat[start : start + step][bound[start : start + step] > best]
        i, k, d = np.unravel_index(sel, (L, L, n))
        num = np.max(np.abs(F[i] - shifted[k, d]), axis=1)
        best = max(best, float(np.max(num / dist[i, k, d])))
    return best


def check_T32(f, alpha: float):
    """Hoelder-threshold sufficient condition: |f|_{C^alpha} <= gamma min f,
    with gamma = gamma_{2, alpha} (:func:`kernels.gamma_const`).

    Returns (holds, lhs, rhs).  One-sided: holds=False makes no claim.
    """
    _require_positive(f)
    gamma = kernels.gamma_const(2, alpha)
    lhs = holder_seminorm(f, alpha)
    rhs = gamma * float(np.min(f.values))
    return bool(lhs <= rhs), lhs, rhs


def _pogorelov_form(f):
    """Entries (a, b, d) of the 2x2 form f I - Hess f at every node of f,
    in the node frame (e_theta, e_phi) of :func:`harmonics.grid_hessian`."""
    H = f.hessian
    return f.values - H[:, 0, 0], -H[:, 0, 1], f.values - H[:, 1, 1]


def _guan_ma_form(f):
    """Entries (a, b, d) of f^2 (Hess(1/f) + (1/f) I) = f I - Hess f +
    2 grad f grad f^T / f at every node of f, in the bases of
    :func:`_pogorelov_form`, the node frame (e_theta, e_phi)."""
    a, b, d = _pogorelov_form(f)
    g1, g2 = (np.sum(f.gradient * e, axis=1) for e in (f.grid.frame.e_th, f.grid.frame.e_ph))
    w = 2.0 / f.values
    return a + w * g1 * g1, b + w * g1 * g2, d + w * g2 * g2


def _pogorelov_min(f):
    """Smallest eigenvalue of f I - Hess f over the nodes of f, its node and
    its exact minimizing tangent direction: (min, SpherePoint,
    TangentDirection)."""
    frame = f.grid.frame
    vals, i, xi = _form_min(*_pogorelov_form(f), frame.e_th, frame.e_ph)
    x = SpherePoint(f.grid.nodes[i])
    return float(vals[i]), x, TangentDirection(x, xi)


def check_T33(f):
    """Symmetry-monotonicity condition on the degree-(-1) extension F:

        d_xi F(x + t xi) - d_xi F(x - t xi) <= 0  for all t > 0, xi _|_ x.

    On S^2 it is the Pogorelov condition f I - Hess f >= 0.  Take t = tan
    theta, g(theta) = f(cos theta x + sin theta xi), G(theta) = (g(theta)
    + g(-theta)) / 2 and E(theta) = cos theta G(theta); by homogeneity the
    difference above is 2 cos^2 theta E'(theta), so T33 says that E does
    not increase on (0, pi/2).

    * T33 implies non-strict Pogorelov: E'(0) = 0 and E''(0) = Hess
      f(xi, xi) - f(x), so E' <= 0 near 0 forces (f I - Hess f)(xi, xi)
      >= 0.
    * Strict Pogorelov implies T33: g'' < g on every great circle gives
      G'' < G.  With r = G'/G, r(0) = 0 and r' = G''/G - r^2 < 1 <= (tan
      theta)', so r < tan theta on (0, pi/2), and E' = G cos theta (r - tan
      theta) < 0 as f > 0.

    So the two verdicts can differ only at the boundary, inside the
    tolerance: T33 holds when the smallest eigenvalue of the form over the
    nodes (:func:`_pogorelov_min`) is at least -1e-8 max|f|.  The node form
    is a sample of the form on each great circle, as for
    :func:`check_pogorelov`.  Returns (holds, min, (x, xi)), the witness
    node and its minimizing direction.
    """
    _require_positive(f)
    min_val, x, xi = _pogorelov_min(f)
    return bool(min_val >= -_FORM_RTOL * float(np.max(np.abs(f.values)))), min_val, (x, xi)


def check_pogorelov(f):
    """Arc-length condition f - f_ss > 0 on S^2 (two dimensions).

    f_ss along xi is the (xi, xi) entry of the covariant Hessian, so the
    minimum over directions is the smaller eigenvalue of f I - Hess f
    (:func:`_pogorelov_form`) at each node.  Returns (holds, min, (x, xi)),
    the node of the minimum and its exact minimizing direction; holds when
    the minimum is positive.  Its non-strict form is :func:`check_T33`.
    """
    _require_positive(f)
    min_val, x, xi = _pogorelov_min(f)
    return bool(min_val > 0.0), min_val, (x, xi)


def check_guan_ma(f):
    """Constant-rank condition: Hess(1/f) + (1/f) I >= 0 on S^2.

    By the quotient rule the form is (f I - Hess f + 2 grad f grad f^T /
    f) / f^2 (:func:`_guan_ma_form`), exact at every node of f's grid from
    f's grid gradient and Hessian: 1/f, which is not band-limited, is never
    analyzed.  It is the Pogorelov form plus a positive semidefinite term,
    over f^2, so Pogorelov implies Guan-Ma node by node.  Returns (holds,
    min eigenvalue); holds when the minimum is at least -1e-8 max 1/f.
    """
    _require_positive(f)
    v = f.values
    min_eig = float(np.min(_min_eig2(*_guan_ma_form(f)) / (v * v)))
    return bool(min_eig >= -_FORM_RTOL * (1.0 / float(np.min(v)))), min_eig
