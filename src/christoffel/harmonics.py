"""Real spherical-harmonic analysis on S^2 and the spectral Laplace solver.

Every :class:`SphericalField` is a band-limited expansion together with
its grid values: it always carries its coefficients.  Raw samples enter as
value arrays through :func:`analyze`, :func:`bandlimit` or
:func:`field_from_function`, which attach them.

Basis: real, fully normalized over the sphere (the square of every basis
function integrates to 1).  Coefficients are packed flat with index
l*l + l + m, m in [-l, l]; m > 0 are cosine terms, m < 0 sine terms.

The solver inverts (Laplace-Beltrami + 2) on S^2 degree by degree:
the operator acts on degree l as multiplication by 2 - l*(l+1), with the
degree-1 harmonics spanning its kernel.

Transform plan: every table a transform reads is built once per size and
then shared, as in SHTns (Schaeffer 2013).  Module-level
``functools.lru_cache`` entries hold, keyed by the band limit L_max, the
packed (m, l) layout and the flat coefficient indices of each order
(:func:`_pair_index`, :func:`_order_index`) and the Legendre values at the
L_max + 2 colatitudes of the scattered-point profiles
(:func:`_profile_blocks`); keyed by (L, L_max), the Legendre values at the
Gauss nodes of grid L, one recursion whose theta-derivative tables are
derived from it (:func:`_grid_legendre`, :func:`_grid_blocks`), and the
azimuth tables with their phi-derivative factors (:func:`_azimuth_plan`).
Each cache keeps the last 4 to 16 keys, enough for every size one command
uses.  Every cached array is read-only, so a stray in-place write raises
ValueError instead of corrupting later transforms.  The tables hold the
values the transforms computed per call before, and the arithmetic on
them is unchanged, so results are bit-identical to building the tables
afresh on each call.

Grid derivatives are taken by order.  :func:`_grid_profiles` contracts the
coefficients with the Legendre tables of theta-derivative orders 0..k;
:func:`synthesize` reads order 0, :func:`grid_gradient` orders <= 1 and
:func:`grid_hessian` orders <= 2, each times the azimuth rows, or their
m and m^2 multiples for phi-derivatives.  They are formed in the node
frame (e_theta, e_phi) that each grid keeps (:attr:`SphereGrid.frame`).

The solvability condition int x f = 0 concerns the degree-1 part of f
alone, and the real Y_1^m are sqrt(3/4pi) (x_2, x_3, x_1): so
:func:`orthogonality_defect` and :func:`project_out_linear` read it from
the coefficients and run no quadrature.

Off-grid derivatives come from one object, the derivative channels of the
1-homogeneous extension G(y) = |y| g(y/|y|): on S^2, DG = grad g + g x and
D^2 G = E (Hess g + g I) E^T for any tangent frame E (Schneider, "Convex
Bodies", 2nd ed., 2014, section 2.5).  A degree-l term contributes only
d_i h, x_i h, d_ij h, x_i d_j h and x_i x_j h of its solid harmonic h, so
the 3 entries of DG are spherical polynomials of degree <= L_max + 1 and the
6 entries of D^2 G of degree <= L_max + 2.  They are analyzed once per
coefficient set (:attr:`HarmonicCoeffs.extension_channels`) from the grid
derivatives of :attr:`HarmonicCoeffs.channel_field`, the field on the Gauss
grid L_max + 3, which integrates their products with the basis exactly.
Point gradients and ambient Hessians then only synthesize channels, all
channels of one band from one set of theta profiles: no (theta, phi) frame,
no tangent basis and no pole test, so the points may be poles.  Grid
derivatives are formed once per field and kept
(:attr:`SphericalField.gradient`, :attr:`SphericalField.hessian`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    BandLimitExceeded,
    ChristoffelError,
    InvalidParameter,
    OrthogonalityViolation,
)
from .sphere import SphereGrid, _azimuths, _polar_rule, make_grid

DEFAULT_L_MAX = 32
DEFAULT_GRID_L = 48

# packed symmetric 3x3 matrices: entries (0,0) (0,1) (0,2) (1,1) (1,2) (2,2)
_SYM_ROWS, _SYM_COLS = np.triu_indices(3)
_SYM_FULL = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])
# sqrt(3/4pi): the real Y_1^m, m = -1, 0, 1, are _Y1_NORM (x_2, x_3, x_1)
_Y1_NORM = np.sqrt(3.0 / (4.0 * np.pi))


@dataclass(frozen=True)
class HarmonicCoeffs:
    """Real spherical-harmonic coefficients up to band limit L_max."""

    L_max: int
    c: np.ndarray  # flat, length (L_max + 1)**2

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.shape != ((self.L_max + 1) ** 2,):
            raise ValueError("coefficient array has wrong length for L_max")
        if not np.all(np.isfinite(c)):
            raise InvalidParameter("coefficients must be finite")
        object.__setattr__(self, "c", c)

    @staticmethod
    def index(l: int, m: int) -> int:
        return l * l + l + m

    def apply_operator(self) -> HarmonicCoeffs:
        """Coefficients of (Laplacian + 2) applied to this expansion."""
        return HarmonicCoeffs(L_max=self.L_max, c=self.c * operator_diagonal(self.L_max))

    def invert_operator(self) -> HarmonicCoeffs:
        """Inverse of (Laplacian + 2) off its kernel; degree 1 is set to 0."""
        D = operator_diagonal(self.L_max)
        D[1:4] = 1.0
        c = self.c / D
        c[1:4] = 0.0
        return HarmonicCoeffs(L_max=self.L_max, c=c)

    @cached_property
    def channel_field(self) -> SphericalField:
        """This expansion on the Gauss grid L_max + 3 (at least 4), which
        analyzes its channels of degree <= L_max + 2 exactly.  It holds its
        own coefficient object over the same c, so it forms no reference
        cycle with these coefficients and is freed with them."""
        own = HarmonicCoeffs(L_max=self.L_max, c=self.c)
        return synthesize(own, make_grid(max(self.L_max + 3, 4)))

    @cached_property
    def extension_channels(self) -> ExtensionChannels:
        """Derivative channels of the 1-homogeneous extension, built on
        first use and kept with these coefficients."""
        return _extension_channels(self)


class ExtensionChannels(NamedTuple):
    """Coefficients of the derivatives of G(y) = |y| g(y/|y|) on S^2."""

    grad: tuple  # DG_i, i = 0..2, each HarmonicCoeffs at band L_max + 1
    hess: tuple  # D^2 G_ij, i <= j packed as _SYM_ROWS/_SYM_COLS, band L_max + 2


def operator_diagonal(L_max: int) -> np.ndarray:
    """Flat spectrum 2 - l(l+1) of (Laplacian + 2), one entry per coefficient."""
    l = np.repeat(np.arange(L_max + 1), 2 * np.arange(L_max + 1) + 1)
    return 2.0 - l * (l + 1.0)


@dataclass(frozen=True)
class SphericalField:
    """Real function on S^2: its values at the grid nodes and the harmonic
    coefficients they come from or were analyzed into.  Both are always
    present; a field without coefficients cannot be built."""

    grid: SphereGrid
    values: np.ndarray
    coeffs: HarmonicCoeffs

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.node_count,):
            raise ValueError("values length does not match grid node count")
        if not isinstance(self.coeffs, HarmonicCoeffs):
            raise TypeError("a field needs its HarmonicCoeffs")
        object.__setattr__(self, "values", v)

    @cached_property
    def gradient(self) -> np.ndarray:
        """:func:`grid_gradient` of this field, formed once, kept read-only."""
        return _read_only(grid_gradient(self))[0]

    @cached_property
    def hessian(self) -> np.ndarray:
        """:func:`grid_hessian` of this field, formed once, kept read-only."""
        return _read_only(grid_hessian(self))[0]


def require_tolerance(tol: float) -> None:
    """Reject a tolerance outside 0 < tol < inf (NaN included)."""
    if not 0.0 < tol < np.inf:
        raise InvalidParameter(f"tolerance must satisfy 0 < tol < inf, got {tol}")


# ----------------------------------------------------------------------
# Associated Legendre recursions (fully normalized, no Condon-Shortley)
# ----------------------------------------------------------------------

def _read_only(*arrays):
    """Mark arrays shared through a cache read-only; returns them as a tuple."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=8)
def _pair_index(L_max: int):
    """Packed (m, l) pair layout, m-major with l ascending within each m.

    Returns (m_arr, l_arr, offsets, prev_col, cos_idx, sin_idx): prev_col is
    the packed column of (l-1, m) or -1, cos/sin_idx map pairs to flat
    coefficient indices (l, +-m).
    """
    ms, ls = [], []
    for m in range(L_max + 1):
        for l in range(m, L_max + 1):
            ms.append(m)
            ls.append(l)
    m_arr = np.array(ms, dtype=int)
    l_arr = np.array(ls, dtype=int)
    offsets = np.zeros(L_max + 2, dtype=int)
    for m in range(L_max + 1):
        offsets[m + 1] = offsets[m] + (L_max + 1 - m)
    prev = np.where(l_arr - 1 >= m_arr, np.arange(len(ms)) - 1, -1)
    cos_idx = l_arr * l_arr + l_arr + m_arr
    sin_idx = l_arr * l_arr + l_arr - m_arr
    return _read_only(m_arr, l_arr, offsets, prev, cos_idx, sin_idx)


@lru_cache(maxsize=8)
def _order_index(L_max: int):
    """Flat coefficient indices of each order m: (cos, sin) tuples indexed
    by m, entry m listing (l, m) resp. (l, -m) for l = m..L_max."""
    _, _, offsets, _, cos_idx, sin_idx = _pair_index(L_max)
    orders = [slice(offsets[m], offsets[m + 1]) for m in range(L_max + 1)]
    return tuple(cos_idx[o] for o in orders), tuple(sin_idx[o] for o in orders)


def _legendre_packed(t: np.ndarray, L_max: int) -> np.ndarray:
    """Normalized associated Legendre values in the packed pair layout.

    Returns shape (n_pairs, len(t)) (pairs-major, so each pair is a
    contiguous row), t = cos theta.  Normalization: the basis function built
    from pair (l, m) and its azimuth factor has unit L^2 norm on the sphere.
    The degree recursion is vectorized across all orders m one diagonal
    l - m at a time.
    """
    m_arr, _, offsets, _, _, _ = _pair_index(L_max)
    t = np.asarray(t, dtype=float)
    s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    n_pts = t.shape[0]
    P = np.empty((len(m_arr), n_pts))

    pmm = np.full(n_pts, np.sqrt(1.0 / (4.0 * np.pi)))
    P[offsets[0]] = pmm
    for m in range(1, L_max + 1):
        pmm = pmm * s * np.sqrt((2.0 * m + 1.0) / (2.0 * m))
        P[offsets[m]] = pmm
    if L_max >= 1:
        mv = np.arange(L_max)
        coef = np.sqrt(2.0 * mv + 3.0)
        P[offsets[mv] + 1] = coef[:, None] * t[None, :] * P[offsets[mv]]
    for k in range(2, L_max + 1):
        mv = np.arange(L_max - k + 1)
        lv = mv + k
        a = np.sqrt((4.0 * lv * lv - 1.0) / (lv * lv - mv * mv))
        b = np.sqrt(((lv - 1.0) ** 2 - mv * mv) / (4.0 * (lv - 1.0) ** 2 - 1.0))
        tgt = offsets[mv] + k
        P[tgt] = a[:, None] * (t[None, :] * P[tgt - 1] - b[:, None] * P[tgt - 2])
    return P


def _legendre_derivative(t: np.ndarray, tables, L_max: int) -> np.ndarray:
    """The next theta-derivative of the packed Legendre values at t, from
    ``tables`` = (P,) or (P, dP/dtheta): no second recursion."""
    m_arr, l_arr, _, prev, _, _ = _pair_index(L_max)
    s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    inv_s = np.where(s > 0, 1.0 / np.maximum(s, 1e-300), 0.0)
    P = tables[0]
    if len(tables) == 1:
        # dP/dtheta = (l t P_l^m - c_lm P_{l-1}^m) / sin(theta)
        Pprev = np.empty_like(P)
        valid = prev >= 0
        Pprev[valid] = P[prev[valid]]
        Pprev[~valid] = 0.0
        c_lm = np.sqrt(
            (2.0 * l_arr + 1.0) * (l_arr * l_arr - m_arr * m_arr)
            / np.maximum(2.0 * l_arr - 1.0, 1.0)
        )
        return (l_arr[:, None] * t[None, :] * P - c_lm[:, None] * Pprev) * inv_s[None, :]
    # Legendre ODE in theta: P'' = -cot(theta) P' - (l(l+1) - m^2/sin^2) P
    cot = t * inv_s
    return (
        -cot[None, :] * tables[1]
        - (
            (l_arr * (l_arr + 1.0))[:, None]
            - (m_arr * m_arr)[:, None] * (inv_s * inv_s)[None, :]
        )
        * P
    )


def _order_blocks(tables, L_max: int):
    """Per-order views of packed tables: entry m is a tuple with one array
    of shape (n_pts, L_max + 1 - m), column l - m, per table."""
    offsets = _pair_index(L_max)[2]
    return tuple(
        tuple(arr[offsets[m] : offsets[m + 1], :].T for arr in tables)
        for m in range(L_max + 1)
    )


@lru_cache(maxsize=16)
def _grid_legendre(L: int, L_max: int, nderiv: int):
    """Packed P and its first ``nderiv`` theta-derivatives at the Gauss
    nodes of grid L.  Each level extends the one below it, so one recursion
    per (L, L_max) serves every derivative order."""
    t = _polar_rule(L)[0]
    if nderiv == 0:
        return _read_only(_legendre_packed(t, L_max))
    lower = _grid_legendre(L, L_max, nderiv - 1)
    return lower + _read_only(_legendre_derivative(t, lower, L_max))


@lru_cache(maxsize=16)
def _grid_blocks(L: int, L_max: int, nderiv: int):
    return _order_blocks(_grid_legendre(L, L_max, nderiv), L_max)


@lru_cache(maxsize=4)
def _profile_blocks(L_max: int):
    """Per-order Legendre blocks at the L_max + 2 colatitudes
    pi j / (L_max + 1) of :func:`_theta_profiles`."""
    n = L_max + 1
    P = _legendre_packed(np.cos(np.pi * np.arange(n + 1) / n), L_max)
    return _order_blocks(_read_only(P), L_max)


@lru_cache(maxsize=8)
def _azimuth_plan(L: int, L_max: int):
    """Azimuth tables of grid L, each (L_max + 1, 2L): cos m phi and
    sin m phi with the sqrt(2) factor for m > 0, then both times m and
    times m^2 (the factors of the first and second phi-derivatives)."""
    m = np.arange(L_max + 1)[:, None]
    arg = m * _azimuths(L)[None, :]
    scale = np.where(m > 0, np.sqrt(2.0), 1.0)
    cos_t, sin_t = scale * np.cos(arg), scale * np.sin(arg)
    return _read_only(cos_t, sin_t, m * cos_t, m * sin_t, m**2 * cos_t, m**2 * sin_t)


def _coeff_stacks(c: np.ndarray, L_max: int):
    """Per-order coefficients of the flat array c, (K,) or (K, C) for C
    channels: (cos, sin) lists indexed by m."""
    cos_idx, sin_idx = _order_index(L_max)
    return [c[i] for i in cos_idx], [None] + [c[i] for i in sin_idx[1:]]


def _synth_theta_stacks(blocks, cos_c, sin_c, L_max, deriv=0):
    """Contract Legendre blocks with coefficients over l.

    Returns (A, B) of shape (n_pts, L_max + 1), with a trailing channel
    axis when the coefficients have one: theta profiles multiplying the
    cos/sin azimuth rows.
    """
    shape = (blocks[0][0].shape[0], L_max + 1) + cos_c[0].shape[1:]
    A = np.zeros(shape)
    B = np.zeros(shape)
    for m in range(L_max + 1):
        block = blocks[m][deriv]
        A[:, m] = block @ cos_c[m]
        if sin_c[m] is not None:
            B[:, m] = block @ sin_c[m]
    return A, B


# ----------------------------------------------------------------------
# Grid transforms
# ----------------------------------------------------------------------

def require_band_limit(grid: SphereGrid, L_max: int) -> None:
    """Raise InvalidParameter for a band limit L_max < 0 and
    BandLimitExceeded unless the grid resolves L_max."""
    if L_max < 0:
        raise InvalidParameter(f"band limit must satisfy L_max >= 0, got {L_max}")
    if grid.L < L_max + 1:
        raise BandLimitExceeded(
            f"grid L={grid.L} cannot resolve L_max={L_max} (need L >= L_max + 1)"
        )


def analyze(grid: SphereGrid, values: np.ndarray, L_max: int) -> HarmonicCoeffs:
    """Forward transform of the samples ``values`` at the grid nodes by
    quadrature; exact for band-limited fields.

    Requires grid resolution L >= L_max + 1.  Values that are not finite,
    or so large that the quadrature sums overflow, give coefficients that
    are not finite: :class:`HarmonicCoeffs` rejects them with
    InvalidParameter.
    """
    require_band_limit(grid, L_max)
    vals = values.reshape(grid.L, grid.azimuth_count)
    cos_t, sin_t = _azimuth_plan(grid.L, L_max)[:2]
    w_phi = np.pi / grid.L
    blocks = _grid_blocks(grid.L, L_max, 0)
    cos_idx, sin_idx = _order_index(L_max)
    wt = grid.polar_weights
    c = np.zeros((L_max + 1) ** 2)
    with np.errstate(over="ignore", invalid="ignore"):
        Fc = vals @ cos_t.T * w_phi  # (L, L_max+1)
        Fs = vals @ sin_t.T * w_phi
        for m in range(L_max + 1):
            c[cos_idx[m]] = blocks[m][0].T @ (wt * Fc[:, m])
            if m > 0:
                c[sin_idx[m]] = blocks[m][0].T @ (wt * Fs[:, m])
    return HarmonicCoeffs(L_max=L_max, c=c)


def synthesize(coeffs: HarmonicCoeffs, grid: SphereGrid) -> SphericalField:
    """Evaluate the expansion on a grid; attaches the coefficients."""
    A, B = _grid_profiles(coeffs, grid, 0)[0]
    cos_t, sin_t = _azimuth_plan(grid.L, coeffs.L_max)[:2]
    vals = A @ cos_t + B @ sin_t
    return SphericalField(grid=grid, values=vals.ravel(), coeffs=coeffs)


def _grid_profiles(coeffs: HarmonicCoeffs, grid: SphereGrid, order: int) -> list:
    """Theta profiles (A, B) of the theta-derivatives 0..``order`` at the
    rings of ``grid``, as :func:`_synth_theta_stacks`, entry d the d-th."""
    blocks = _grid_blocks(grid.L, coeffs.L_max, order)
    cos_c, sin_c = _coeff_stacks(coeffs.c, coeffs.L_max)
    return [_synth_theta_stacks(blocks, cos_c, sin_c, coeffs.L_max, d) for d in range(order + 1)]


def bandlimit(grid: SphereGrid, values: np.ndarray, L_max: int):
    """Analyze the samples ``values`` at band limit L_max and re-synthesize
    them on the grid.

    Returns (band-limited field, max-norm truncation error on the grid).
    For band-limited inputs the error is at rounding level.
    """
    out = synthesize(analyze(grid, values, L_max), grid)
    err = float(np.max(np.abs(out.values - values)))
    return out, err


def field_from_function(grid: SphereGrid, fn, L_max: int) -> SphericalField:
    """Sample fn(nodes) -> values on the grid and attach their coefficients
    at band limit L_max."""
    values = np.asarray(fn(grid.nodes), dtype=float)
    return SphericalField(grid=grid, values=values, coeffs=analyze(grid, values, L_max))


# ----------------------------------------------------------------------
# Point evaluation and tangential derivatives
# ----------------------------------------------------------------------

def _points_angles(points):
    pts = np.asarray(points, dtype=float)
    # arctan2 keeps full relative accuracy near the poles, where arccos(z)
    # loses about half the digits
    theta = np.arctan2(np.hypot(pts[:, 0], pts[:, 1]), pts[:, 2])
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    return pts, theta, phi


def _theta_profiles(coeffs, theta):
    """Theta profiles of every order at arbitrary colatitudes: (A, B), each
    (n_pts, L_max + 1), as :func:`_synth_theta_stacks`.
    ``coeffs`` is one coefficient set, or a sequence of sets of one band
    whose profiles then carry a trailing channel axis: all channels share
    one FFT and one product.

    A_m(theta) = sum_l c_lm P_l^m(cos theta) is a trigonometric polynomial
    of degree <= L_max, a cosine series for even m and a sine series for
    odd m, with A_m(2 pi - theta) = (-1)^m A_m(theta) (the double Fourier
    sphere of Townsend, Wilber & Wright 2016).  Its values at the L_max + 2
    colatitudes pi j / (L_max + 1), mirrored onto the circle, give its
    coefficients by one real FFT.  One real matrix product with cos k theta
    and sin k theta then gives every profile at the points.
    """
    if isinstance(coeffs, HarmonicCoeffs):
        L_max, c = coeffs.L_max, coeffs.c
    else:
        L_max, c = coeffs[0].L_max, np.stack([ch.c for ch in coeffs], axis=1)
    n = L_max + 1
    A, B = _synth_theta_stacks(_profile_blocks(L_max), *_coeff_stacks(c, L_max), L_max)
    prof = np.concatenate([A, B], axis=1)  # columns A_0..A_L, B_0..B_L
    trail = (1,) * (c.ndim - 1)
    sign = np.tile((-1.0) ** np.arange(n), 2).reshape((2 * n,) + trail)
    circle = np.concatenate([prof, sign * prof[-2:0:-1]])
    F = np.fft.rfft(circle, axis=0)[:n] / n  # the Nyquist term is zero
    F[0] *= 0.5
    W = np.stack([F.real, -F.imag], axis=1).reshape(2 * n, -1)  # rows a_0 b_0 a_1 ...
    # exp(i k theta) viewed as float interleaves cos k theta and sin k theta
    # in the row order of W
    P = np.exp(1j * np.multiply.outer(theta, np.arange(n))).view(float) @ W
    P = P.reshape((len(theta), 2, n) + c.shape[1:])
    return P[:, 0], P[:, 1]


def synthesize_at(coeffs, points) -> np.ndarray:
    """Evaluate the expansion at arbitrary unit vectors, shape (N, 3).

    The theta profiles come from :func:`_theta_profiles` and are contracted
    with the azimuth factors of each point; memory is O(n_pts L_max).
    ``coeffs`` may also be a sequence of coefficient sets of one band: the
    result is then (N, len(coeffs)), from one set of profiles for all.
    """
    _, theta, phi = _points_angles(points)
    A, B = _theta_profiles(coeffs, theta)
    m = np.arange(A.shape[1])[None, :]
    z = np.where(m > 0, np.sqrt(2.0), 1.0) * np.exp(1j * m * phi[:, None])
    z = z.reshape(z.shape + (1,) * (A.ndim - 2))
    return np.sum(A * z.real + B * z.imag, axis=1)


def analyze_channels(grid: SphereGrid, values: np.ndarray, band: int) -> tuple:
    """Coefficients at ``band`` of every column of ``values`` (N, C)."""
    return tuple(analyze(grid, v, band) for v in values.T)


def _extension_channels(coeffs: HarmonicCoeffs) -> ExtensionChannels:
    """DG and D^2 G of the 1-homogeneous extension from the grid gradient
    and Hessian of :attr:`HarmonicCoeffs.channel_field`, analyzed at their
    exact bands."""
    L_max = coeffs.L_max
    field = coeffs.channel_field
    grid, g = field.grid, field.values
    DG = field.gradient + g[:, None] * grid.nodes
    E = np.stack([grid.frame.e_th, grid.frame.e_ph], axis=2)  # (N, 3, 2)
    H = field.hessian + g[:, None, None] * np.eye(2)
    D2G = np.einsum("nik,nkl,njl->nij", E, H, E)[:, _SYM_ROWS, _SYM_COLS]
    return ExtensionChannels(grad=analyze_channels(grid, DG, L_max + 1),
                             hess=analyze_channels(grid, D2G, L_max + 2))


def values_and_gradient_at(coeffs: HarmonicCoeffs, points):
    """Field values and tangential gradients as ambient 3-vectors, (N,) and
    (N, 3): grad g(x) = DG(x) - g(x) x."""
    pts = np.asarray(points, dtype=float)
    vals = synthesize_at(coeffs, pts)
    DG = synthesize_at(coeffs.extension_channels.grad, pts)
    return vals, DG - vals[:, None] * pts


def extension_hessian_at(coeffs: HarmonicCoeffs, points) -> np.ndarray:
    """Ambient Hessian D^2 G of the 1-homogeneous extension, (N, 3, 3).

    On S^2 it is E (Hess g + g I) E^T: it annihilates x, and its eigenvalues
    on the tangent plane are those of Hess g + g I (the principal radii when
    g is a support function).
    """
    return synthesize_at(coeffs.extension_channels.hess, points)[:, _SYM_FULL]


def grid_gradient(field: SphericalField) -> np.ndarray:
    """Spherical gradient at every grid node, shape (N, 3): e_theta d_theta
    + e_phi d_phi / sin(theta), with no node at a pole."""
    (A0, B0), (A1, B1) = _grid_profiles(field.coeffs, field.grid, 1)
    cos_t, sin_t, m_cos, m_sin = _azimuth_plan(field.grid.L, field.coeffs.L_max)[:4]
    dth = (A1 @ cos_t + B1 @ sin_t).ravel()
    dph = (B0 @ m_cos - A0 @ m_sin).ravel()
    frame = field.grid.frame
    return frame.e_th * dth[:, None] + frame.e_ph * (dph / frame.sin)[:, None]


def grid_hessian(field: SphericalField) -> np.ndarray:
    """Covariant Hessian at every grid node, shape (N, 2, 2), in the node
    frame (e_theta, e_phi) of :attr:`SphereGrid.frame`: h_thth = f_thth,
    h_thph = (f_thph - cot(theta) f_ph) / sin(theta) and h_phph = f_phph /
    sin^2(theta) + cot(theta) f_th.  No node sits at a pole, so the frame
    holds at every node and needs no rotation.
    """
    (A0, B0), (A1, B1), (A2, B2) = _grid_profiles(field.coeffs, field.grid, 2)
    cos_t, sin_t, m_cos, m_sin, m2_cos, m2_sin = _azimuth_plan(field.grid.L, field.coeffs.L_max)
    dth = (A1 @ cos_t + B1 @ sin_t).ravel()
    dph = (B0 @ m_cos - A0 @ m_sin).ravel()
    dthth = (A2 @ cos_t + B2 @ sin_t).ravel()
    dthph = (B1 @ m_cos - A1 @ m_sin).ravel()
    dphph = -(A0 @ m2_cos + B0 @ m2_sin).ravel()
    s, c = field.grid.frame.sin, field.grid.frame.cos
    H = np.empty((len(s), 2, 2))
    H[:, 0, 0] = dthth
    H[:, 0, 1] = H[:, 1, 0] = (dthph - (c / s) * dph) / s
    H[:, 1, 1] = dphph / (s * s) + (c / s) * dth
    return H


# ----------------------------------------------------------------------
# Kernel orthogonality and the spectral solver
# ----------------------------------------------------------------------

def _degree1(c: np.ndarray) -> np.ndarray:
    """(c_11, c_1-1, c_10) of the flat array c; zeros at band limit 0."""
    return c[[3, 1, 2]] if c.size > 1 else np.zeros(3)


def orthogonality_defect(f: SphericalField) -> np.ndarray:
    """The moments (int x_1 f, int x_2 f, int x_3 f) over the sphere, shape
    (3,), read from the degree-1 coefficients (c_11, c_1-1, c_10) /
    sqrt(3/4pi)."""
    return _degree1(f.coeffs.c) / _Y1_NORM


def degree1_magnitude(coeffs: HarmonicCoeffs) -> float:
    """L^2 norm of the degree-1 harmonic component."""
    return float(np.linalg.norm(coeffs.c[1:4]))


def project_out_linear(f: SphericalField) -> SphericalField:
    """Remove the degree-1 harmonic component from a field.

    The removed part, the linear function x -> <x, sqrt(3/4pi) (c_11,
    c_1-1, c_10)>, is evaluated at the nodes from the degree-1 coefficients
    and subtracted from the values; the coefficients lose their degree-1
    entries and keep the rest.
    """
    c = f.coeffs.c.copy()
    linear_vals = f.grid.nodes @ (_Y1_NORM * _degree1(c))
    c[1:4] = 0.0
    return SphericalField(grid=f.grid, values=f.values - linear_vals,
                          coeffs=HarmonicCoeffs(L_max=f.coeffs.L_max, c=c))


def christoffel_residual(coeffs: HarmonicCoeffs, grid: SphereGrid, rhs) -> float:
    """Max-norm grid residual of (Laplacian + 2) u - rhs, from the
    coefficients of u and the values of the right-hand side at the nodes."""
    lu = synthesize(coeffs.apply_operator(), grid).values
    return float(np.max(np.abs(lu - rhs)))


class ChristoffelSolution(NamedTuple):
    """Solution of (Laplacian + 2) u = f and its :func:`christoffel_residual`
    against the right-hand side that was solved."""

    u: SphericalField
    residual_inf: float


def solve_christoffel(
    f: SphericalField, rtol: float = 1e-8, project: bool = False
) -> ChristoffelSolution:
    """Solve (Laplacian + 2) u = f on S^2 spectrally; returns (u, residual).

    Degree-l coefficients are divided by 2 - l(l+1); the degree-1 component
    of the solution is set to zero (translation normalization).  The
    right-hand side must be orthogonal to the degree-1 harmonics: if its
    defect exceeds tol = ``rtol`` * max|f| an OrthogonalityViolation is
    raised, unless ``project`` forces the defect to be projected away.  The
    residual is taken against the projected f then, and a residual above
    10 max(tol, 1e-14) raises ChristoffelError.  An ``rtol`` outside
    0 < rtol < inf raises InvalidParameter.
    """
    require_tolerance(rtol)
    tol = rtol * float(np.max(np.abs(f.values)))
    defect = orthogonality_defect(f)
    if np.max(np.abs(defect)) > tol and not project:
        raise OrthogonalityViolation(defect)
    rhs = project_out_linear(f) if project else f
    uc = rhs.coeffs.invert_operator()
    u = synthesize(uc, f.grid)
    res = christoffel_residual(uc, f.grid, rhs.values)
    if res > 10.0 * max(tol, 1e-14):
        raise ChristoffelError(
            f"spectral solve residual {res:.3e} exceeds 10*tol={10 * tol:.3e}"
        )
    return ChristoffelSolution(u, res)
