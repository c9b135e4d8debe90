"""Real spherical-harmonic analysis on S^2 and the spectral Laplace solver.

Basis: real, fully normalized over the sphere (the square of every basis
function integrates to 1).  Coefficients are packed flat with index
l*l + l + m, m in [-l, l]; m > 0 are cosine terms, m < 0 sine terms.

The solver inverts (Laplace-Beltrami + 2) on S^2 degree by degree:
the operator acts on degree l as multiplication by 2 - l*(l+1), with the
degree-1 harmonics spanning its kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    BandLimitExceeded,
    ChristoffelError,
    NotAnalyzed,
    OrthogonalityViolation,
)
from .sphere import SphereGrid, _polar_rule, point_coords, tangent_bases

DEFAULT_L_MAX = 32
DEFAULT_GRID_L = 48

# pole guard: below these sin(theta) values frame formulas lose accuracy and
# single-point derivatives switch to exact great-circle differentiation
_SIN_GUARD_GRAD = 1e-8
_SIN_GUARD_HESS = 1e-4


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
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "c", c)

    @staticmethod
    def index(l: int, m: int) -> int:
        return l * l + l + m

    def get(self, l: int, m: int) -> float:
        return float(self.c[self.index(l, m)])

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


def operator_diagonal(L_max: int) -> np.ndarray:
    """Flat spectrum 2 - l(l+1) of (Laplacian + 2), one entry per coefficient."""
    l = np.repeat(np.arange(L_max + 1), 2 * np.arange(L_max + 1) + 1)
    return 2.0 - l * (l + 1.0)


@dataclass(frozen=True)
class SphericalField:
    """Real function on S^2: grid samples plus optional coefficients."""

    grid: SphereGrid
    values: np.ndarray
    coeffs: HarmonicCoeffs | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.node_count,):
            raise ValueError("values length does not match grid node count")
        object.__setattr__(self, "values", v)

    @property
    def L_max(self):
        return None if self.coeffs is None else self.coeffs.L_max


def require_coeffs(f: SphericalField) -> HarmonicCoeffs:
    if f.coeffs is None:
        raise NotAnalyzed("field has no harmonic coefficients; analyze it first")
    return f.coeffs


# ----------------------------------------------------------------------
# Associated Legendre recursions (fully normalized, no Condon-Shortley)
# ----------------------------------------------------------------------

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
    return m_arr, l_arr, offsets, prev, cos_idx, sin_idx


def _legendre_packed(t: np.ndarray, L_max: int, nderiv: int = 0):
    """Normalized associated Legendre values in the packed pair layout.

    Returns ``nderiv + 1`` arrays of shape (n_pairs, len(t)) (pairs-major, so
    each pair is a contiguous row); derivatives are with respect to theta
    (t = cos theta).  Normalization: the basis function built from pair
    (l, m) and its azimuth factor has unit L^2 norm on the sphere.  The
    degree recursion is vectorized across all orders m one diagonal l - m
    at a time.
    """
    m_arr, l_arr, offsets, prev, _, _ = _pair_index(L_max)
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
    if nderiv == 0:
        return (P,)

    # dP/dtheta = (l t P_l^m - c_lm P_{l-1}^m) / sin(theta)
    inv_s = np.where(s > 0, 1.0 / np.maximum(s, 1e-300), 0.0)
    Pprev = np.empty_like(P)
    valid = prev >= 0
    Pprev[valid] = P[prev[valid]]
    Pprev[~valid] = 0.0
    c_lm = np.sqrt(
        (2.0 * l_arr + 1.0) * (l_arr * l_arr - m_arr * m_arr)
        / np.maximum(2.0 * l_arr - 1.0, 1.0)
    )
    D1 = (l_arr[:, None] * t[None, :] * P - c_lm[:, None] * Pprev) * inv_s[None, :]
    if nderiv == 1:
        return (P, D1)

    # Legendre ODE in theta: P'' = -cot(theta) P' - (l(l+1) - m^2/sin^2) P
    cot = t * inv_s
    D2 = (
        -cot[None, :] * D1
        - (
            (l_arr * (l_arr + 1.0))[:, None]
            - (m_arr * m_arr)[:, None] * (inv_s * inv_s)[None, :]
        )
        * P
    )
    return (P, D1, D2)


def _legendre_blocks(t: np.ndarray, L_max: int, nderiv: int = 0):
    """Per-order views of :func:`_legendre_packed`: entry m is a tuple of
    ``nderiv + 1`` arrays of shape (len(t), L_max + 1 - m), column l - m."""
    packed = _legendre_packed(t, L_max, nderiv)
    offsets = _pair_index(L_max)[2]
    return [
        tuple(arr[offsets[m] : offsets[m + 1], :].T for arr in packed)
        for m in range(L_max + 1)
    ]


@lru_cache(maxsize=16)
def _grid_blocks(L: int, L_max: int, nderiv: int):
    return _legendre_blocks(_polar_rule(L)[0], L_max, nderiv)


def _azimuth_tables(phis: np.ndarray, L_max: int):
    """Cos/sin tables including the sqrt(2) factor for m > 0."""
    m = np.arange(L_max + 1)[:, None]
    arg = m * phis[None, :]
    cos_t = np.cos(arg)
    sin_t = np.sin(arg)
    scale = np.where(m > 0, np.sqrt(2.0), 1.0)
    return scale * cos_t, scale * sin_t


def _coeff_stacks(coeffs: HarmonicCoeffs):
    """Per-order coefficient vectors: (cos, sin) lists indexed by m."""
    L = coeffs.L_max
    cos_c, sin_c = [], []
    for m in range(L + 1):
        ls = np.arange(m, L + 1)
        cos_c.append(coeffs.c[ls * ls + ls + m])
        sin_c.append(coeffs.c[ls * ls + ls - m] if m > 0 else None)
    return cos_c, sin_c


def _synth_theta_stacks(blocks, cos_c, sin_c, L_max, deriv=0):
    """Contract Legendre blocks with coefficients over l.

    Returns (A, B) of shape (n_pts, L_max + 1): theta profiles multiplying
    the cos/sin azimuth rows.
    """
    n_pts = blocks[0][0].shape[0]
    A = np.zeros((n_pts, L_max + 1))
    B = np.zeros((n_pts, L_max + 1))
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
    """Raise BandLimitExceeded unless the grid resolves band limit L_max."""
    if grid.L < L_max + 1:
        raise BandLimitExceeded(
            f"grid L={grid.L} cannot resolve L_max={L_max} (need L >= L_max + 1)"
        )


def analyze(field: SphericalField, L_max: int | None = None) -> HarmonicCoeffs:
    """Forward transform by quadrature; exact for band-limited fields.

    Requires grid resolution L >= L_max + 1.
    """
    grid = field.grid
    if L_max is None:
        L_max = min(DEFAULT_L_MAX, grid.L - 1)
    require_band_limit(grid, L_max)
    n_phi = grid.azimuth_count
    vals = field.values.reshape(grid.L, n_phi)
    cos_t, sin_t = _azimuth_tables(grid.phis, L_max)
    w_phi = np.pi / grid.L
    Fc = vals @ cos_t.T * w_phi  # (L, L_max+1)
    Fs = vals @ sin_t.T * w_phi
    blocks = _grid_blocks(grid.L, L_max, 0)
    wt = grid.polar_weights
    c = np.zeros((L_max + 1) ** 2)
    for m in range(L_max + 1):
        ls = np.arange(m, L_max + 1)
        c[ls * ls + ls + m] = blocks[m][0].T @ (wt * Fc[:, m])
        if m > 0:
            c[ls * ls + ls - m] = blocks[m][0].T @ (wt * Fs[:, m])
    return HarmonicCoeffs(L_max=L_max, c=c)


def synthesize(coeffs: HarmonicCoeffs, grid: SphereGrid) -> SphericalField:
    """Evaluate the expansion on a grid; attaches the coefficients."""
    vals = _grid_eval(coeffs, grid, deriv=(0,))[0]
    return SphericalField(grid=grid, values=vals.ravel(), coeffs=coeffs)


def _grid_eval(coeffs, grid, deriv=(0,)):
    """Evaluate theta/phi derivative combinations on a full grid.

    ``deriv`` entries: 0 value, 1 d/dtheta, 2 d2/dtheta2, 'phi' d/dphi,
    'phiphi' d2/dphi2, 'thetaphi' mixed.  Returns arrays (L, n_phi).
    """
    L_max = coeffs.L_max
    need2 = any(d in (2, "thetaphi") for d in deriv)
    need1 = need2 or any(d == 1 for d in deriv)
    blocks = _grid_blocks(grid.L, L_max, 2 if need2 else (1 if need1 else 0))
    cos_c, sin_c = _coeff_stacks(coeffs)
    cos_t, sin_t = _azimuth_tables(grid.phis, L_max)
    m_row = np.arange(L_max + 1)[:, None]
    out = []
    cache = {}

    def stacks(d):
        if d not in cache:
            cache[d] = _synth_theta_stacks(blocks, cos_c, sin_c, L_max, d)
        return cache[d]

    for d in deriv:
        if d in (0, 1, 2):
            A, B = stacks(d)
            out.append(A @ cos_t + B @ sin_t)
        elif d == "phi":
            A, B = stacks(0)
            out.append(B @ (m_row * cos_t) - A @ (m_row * sin_t))
        elif d == "phiphi":
            A, B = stacks(0)
            out.append(-(A @ (m_row**2 * cos_t) + B @ (m_row**2 * sin_t)))
        elif d == "thetaphi":
            A, B = stacks(1)
            out.append(B @ (m_row * cos_t) - A @ (m_row * sin_t))
        else:
            raise ValueError(f"unknown derivative tag {d!r}")
    return out


def galerkin_matrix(values: np.ndarray, grid: SphereGrid, L_max: int) -> np.ndarray:
    """Galerkin matrix of multiplication by a grid function, shape (K, K).

    M[k, k'] = sum over nodes of weight * value * Y_k * Y_k', in the flat
    coefficient order: B^T diag(weights * values) B for the basis matrix B
    of the grid, which is never formed.  On the Gauss-Legendre x
    uniform-azimuth grid the azimuth sum of cos/sin factors of orders m and
    m' is, by the product-to-sum identities, half the DFT of the ring's
    weighted values at m - m' and m + m' (taken modulo 2L, so aliasing is
    exact for any L).  In the packed m-major order the block row of order m
    is then one matrix product over the rings (Driscoll & Healy 1994),
    taken for orders m' >= m and mirrored; the order-m square is averaged
    with its transpose, so M is exactly symmetric.  One permutation at the
    end gives the flat order.
    """
    L, n_phi = grid.L, grid.azimuth_count
    ring_dft = np.fft.fft((grid.weights * values).reshape(L, n_phi), axis=1)
    m = np.arange(L_max + 1)
    norm = np.where(m > 0, np.sqrt(2.0), 1.0)
    half_norms = 0.5 * np.outer(norm, norm)
    diff = ring_dft[:, (m[:, None] - m[None, :]) % n_phi]  # (L, m, m')
    summ = ring_dft[:, (m[:, None] + m[None, :]) % n_phi]
    plus, minus = (diff + summ) * half_norms, (diff - summ) * half_norms
    # azimuth sums (L, m, 2 m' + s) for cosine rows and for sine rows, with
    # s = 0 a cosine and s = 1 a sine column
    cos_rows = np.stack([plus.real, minus.imag], axis=-1).reshape(L, L_max + 1, -1)
    sin_rows = np.stack([-plus.imag, minus.real], axis=-1).reshape(L, L_max + 1, -1)

    K = (L_max + 1) ** 2
    l = np.repeat(m, 2 * m + 1)
    signed = np.arange(K) - l * l - l  # flat index l^2 + l + m, m < 0 sine
    order = np.abs(signed)
    group = 2 * order + (signed < 0)  # the 2 m' + s column group
    P = _legendre_packed(grid.polar_nodes, L_max)[0]
    offsets = _pair_index(L_max)[2]
    # packed order: by m, the cosine then the sine terms, each l-ascending;
    # order m occupies [start[m], start[m + 1])
    flat = np.lexsort((l, group))
    groups = group[flat]
    start = np.searchsorted(groups, 2 * np.arange(L_max + 2))
    profiles = P[(offsets[order] + l - order)[flat]].T  # (L, K)
    Mp = np.empty((K, K))
    for mm in m:
        a, b = start[mm], start[mm + 1]
        P_m = P[offsets[mm] : offsets[mm + 1]]
        tail, g = profiles[:, a:], groups[a:]
        tables = (cos_rows, sin_rows)[: 2 if mm else 1]
        block = np.concatenate([P_m @ (t[:, mm, g] * tail) for t in tables])
        block[:, : b - a] = 0.5 * (block[:, : b - a] + block[:, : b - a].T)
        Mp[a:b, a:] = block
        Mp[a:, a:b] = block.T
    pos = np.argsort(flat)
    return Mp.take(pos, axis=0).take(pos, axis=1)


def node_basis(grid: SphereGrid, node: int, L_max: int) -> np.ndarray:
    """Every basis function at one grid node, in the flat coefficient order
    (row ``node`` of the basis matrix B of :func:`galerkin_matrix`)."""
    ring, j = divmod(node, grid.azimuth_count)
    m_arr, _, _, _, cos_idx, sin_idx = _pair_index(L_max)
    P = _legendre_packed(grid.polar_nodes[ring : ring + 1], L_max)[0][:, 0]
    cos_t, sin_t = _azimuth_tables(grid.phis[j : j + 1], L_max)
    row = np.empty((L_max + 1) ** 2)
    row[sin_idx] = P * sin_t[m_arr, 0]
    row[cos_idx] = P * cos_t[m_arr, 0]
    return row


def bandlimit(field: SphericalField, L_max: int | None = None):
    """Analyze and re-synthesize a field at band limit L_max.

    Returns (band-limited field, max-norm truncation error on the grid).
    For band-limited inputs the error is at rounding level.
    """
    coeffs = analyze(field, L_max)
    out = synthesize(coeffs, field.grid)
    err = float(np.max(np.abs(out.values - field.values)))
    return out, err


def field_from_function(grid: SphereGrid, fn, L_max: int | None = None) -> SphericalField:
    """Sample fn(nodes) -> values on the grid and attach coefficients."""
    values = np.asarray(fn(grid.nodes), dtype=float)
    f = SphericalField(grid=grid, values=values)
    return SphericalField(grid=grid, values=values, coeffs=analyze(f, L_max))


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


def _theta_profiles(coeffs, theta, nderiv=0):
    """Theta profiles of every order and their first ``nderiv``
    theta-derivatives at arbitrary colatitudes: a list of ``nderiv + 1``
    pairs (A, B), each (n_pts, L_max + 1), as :func:`_synth_theta_stacks`.

    A_m(theta) = sum_l c_lm P_l^m(cos theta) is a trigonometric polynomial
    of degree <= L_max, a cosine series for even m and a sine series for
    odd m, with A_m(2 pi - theta) = (-1)^m A_m(theta) (the double Fourier
    sphere of Townsend, Wilber & Wright 2016).  Its values at the L_max + 2
    colatitudes pi j / (L_max + 1), mirrored onto the circle, give its
    coefficients by one real FFT; derivatives map the (cos, sin)
    coefficients (a_k, b_k) to (k b_k, -k a_k).  One real matrix product
    with cos k theta and sin k theta then gives every profile at the points.
    """
    L_max = coeffs.L_max
    n = L_max + 1
    nodes = np.pi * np.arange(n + 1) / n
    A, B = _synth_theta_stacks(_legendre_blocks(np.cos(nodes), L_max),
                               *_coeff_stacks(coeffs), L_max)
    prof = np.concatenate([A, B], axis=1)  # columns A_0..A_L, B_0..B_L
    circle = np.concatenate([prof, np.tile((-1.0) ** np.arange(n), 2) * prof[-2:0:-1]])
    F = np.fft.rfft(circle, axis=0)[:n] / n  # the Nyquist term is zero
    F[0] *= 0.5
    a, b = F.real, -F.imag
    k = np.arange(n)
    W = []
    for _ in range(nderiv + 1):
        W.append(np.stack([a, b], axis=1).reshape(2 * n, 2 * n))  # rows a_0 b_0 a_1 ...
        a, b = k[:, None] * b, -k[:, None] * a
    # exp(i k theta) viewed as float interleaves cos k theta and sin k theta
    # in the row order of W
    P = np.exp(1j * np.multiply.outer(theta, k)).view(float) @ np.concatenate(W, axis=1)
    return [(P[:, 2 * n * d : 2 * n * d + n], P[:, 2 * n * d + n : 2 * n * (d + 1)])
            for d in range(nderiv + 1)]


def _point_eval(coeffs, theta, phi, deriv=(0,)):
    """Same derivative tags as _grid_eval, at scattered (theta, phi).

    The theta profiles come from :func:`_theta_profiles` and are contracted
    with the azimuth factors of each point; memory is O(n_pts L_max).
    """
    L_max = coeffs.L_max
    need2 = any(d in (2, "thetaphi") for d in deriv)
    need1 = need2 or any(d == 1 for d in deriv)
    profiles = _theta_profiles(coeffs, theta, 2 if need2 else (1 if need1 else 0))
    m = np.arange(L_max + 1)[None, :]
    z = np.where(m > 0, np.sqrt(2.0), 1.0) * np.exp(1j * m * phi[:, None])
    cos_t, sin_t = z.real, z.imag  # (n_pts, L_max + 1)
    out = []
    for d in deriv:
        if d in (0, 1, 2):
            A, B = profiles[d]
            out.append(np.sum(A * cos_t + B * sin_t, axis=1))
        elif d == "phi":
            A, B = profiles[0]
            out.append(np.sum(m * (B * cos_t - A * sin_t), axis=1))
        elif d == "phiphi":
            A, B = profiles[0]
            out.append(-np.sum(m * m * (A * cos_t + B * sin_t), axis=1))
        elif d == "thetaphi":
            A, B = profiles[1]
            out.append(np.sum(m * (B * cos_t - A * sin_t), axis=1))
        else:
            raise ValueError(f"unknown derivative tag {d!r}")
    return out


def synthesize_at(coeffs: HarmonicCoeffs, points) -> np.ndarray:
    """Evaluate the expansion at arbitrary unit vectors, shape (N, 3)."""
    _, theta, phi = _points_angles(points)
    return _point_eval(coeffs, theta, phi, (0,))[0]


def _frame_vectors(theta, phi):
    st, ct = np.sin(theta), np.cos(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    e_th = np.stack([ct * cp, ct * sp, -st], axis=-1)
    e_ph = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
    return e_th, e_ph


def _frame_gradient(theta, phi, dth, dph):
    """Ambient gradient e_theta d_theta + e_phi d_phi / sin(theta), (n, 3).

    sin(theta) is floored at the pole guard; callers redo points inside it.
    """
    e_th, e_ph = _frame_vectors(theta, phi)
    return e_th * dth[:, None] + e_ph * (dph / np.maximum(np.sin(theta), _SIN_GUARD_GRAD))[:, None]


# derivative tags whose values _frame_hessian takes, in its argument order
_HESSIAN_TAGS = (1, "phi", 2, "thetaphi", "phiphi")


def _frame_hessian(theta, phi, derivs, bases):
    """Covariant Hessian from the _HESSIAN_TAGS derivatives, (n, 2, 2).

    Formed in the (e_theta, e_phi) frame, then rotated into ``bases``.
    """
    dth, dph, dthth, dthph, dphph = derivs
    s, c = np.sin(theta), np.cos(theta)
    h11 = dthth
    h12 = (dthph - (c / s) * dph) / s
    h22 = dphph / (s * s) + (c / s) * dth
    e1, e2 = bases
    e_th, e_ph = _frame_vectors(theta, phi)
    r11 = np.sum(e1 * e_th, axis=1)
    r12 = np.sum(e1 * e_ph, axis=1)
    r21 = np.sum(e2 * e_th, axis=1)
    r22 = np.sum(e2 * e_ph, axis=1)
    H = np.empty((len(theta), 2, 2))
    H[:, 0, 0] = r11 * (r11 * h11 + r12 * h12) + r12 * (r11 * h12 + r12 * h22)
    H[:, 0, 1] = r21 * (r11 * h11 + r12 * h12) + r22 * (r11 * h12 + r12 * h22)
    H[:, 1, 0] = H[:, 0, 1]
    H[:, 1, 1] = r21 * (r21 * h11 + r22 * h12) + r22 * (r21 * h12 + r22 * h22)
    return H


def _grid_angles(grid):
    """(theta, phi) of every grid node in node order."""
    return np.repeat(grid.thetas, grid.azimuth_count), np.tile(grid.phis, grid.L)


def _circle_samples(coeffs, x, d, K):
    ts = 2.0 * np.pi * np.arange(K) / K
    pts = np.outer(np.cos(ts), x) + np.outer(np.sin(ts), d)
    return synthesize_at(coeffs, pts)


def _circle_d1(vals):
    K = len(vals)
    F = np.fft.rfft(vals)
    k = np.arange(len(F))
    b = -2.0 * np.imag(F) / K
    return float(np.sum(k * b))


def _circle_d2(vals):
    K = len(vals)
    F = np.fft.rfft(vals)
    k = np.arange(len(F))
    a = 2.0 * np.real(F) / K
    a[0] *= 0.5
    if K % 2 == 0:
        a[-1] *= 0.5
    return float(-np.sum(k * k * a))


def gradient_at(coeffs: HarmonicCoeffs, points) -> np.ndarray:
    """Tangential (spherical) gradient as ambient 3-vectors, shape (N, 3).

    Differentiates the basis analytically; points within ~1e-8 of a pole
    fall back to exact great-circle spectral differentiation.
    """
    return values_and_gradient_at(coeffs, points)[1]


def values_and_gradient_at(coeffs: HarmonicCoeffs, points):
    """Field values and tangential gradients in one basis evaluation."""
    pts, theta, phi = _points_angles(points)
    vals, dth, dph = _point_eval(coeffs, theta, phi, (0, 1, "phi"))
    grad = _frame_gradient(theta, phi, dth, dph)
    K = 2 * coeffs.L_max + 2
    for i in np.nonzero(np.sin(theta) <= _SIN_GUARD_GRAD)[0]:
        bases = [e[0] for e in tangent_bases(pts[i : i + 1])]
        grad[i] = sum(_circle_d1(_circle_samples(coeffs, pts[i], e, K)) * e for e in bases)
    return vals, grad


def _orbit_values_and_slopes(coeffs: HarmonicCoeffs, points, dirs, n_phi: int):
    """Values and slopes on the z-rotation orbits of points.

    Entry [p, j] is taken at points[p] rotated by 2 pi j / n_phi about the
    z-axis, its slope along dirs[p] rotated with it.  A rotation about the
    z-axis multiplies order m by exp(i m phi), so the theta profiles are
    evaluated once per point and one inverse real FFT over m gives the
    whole orbit (ring-wise synthesis, as in SHTns, Schaeffer 2013).  The
    (e_theta, e_phi) frame turns with the point, so the slope is
    alpha d_theta + beta d_phi / sin(theta) with alpha, beta fixed per
    point: it is folded into the same azimuth spectrum.  Orders m >= n_phi
    alias onto m mod n_phi.  Returns (values, slopes), each (n, n_phi).
    Points within the pole guard take the exact path of
    :func:`values_and_gradient_at` at every rotated point.
    """
    pts, theta, phi = _points_angles(points)
    dirs = np.asarray(dirs, dtype=float)
    e_th, e_ph = _frame_vectors(theta, phi)
    alpha = np.sum(dirs * e_th, axis=1)[:, None]
    beta = (np.sum(dirs * e_ph, axis=1) / np.maximum(np.sin(theta), _SIN_GUARD_GRAD))[:, None]
    (A, B), (dA, dB) = _theta_profiles(coeffs, theta, 1)
    m = np.arange(coeffs.L_max + 1)
    r = m % n_phi
    # f = Re sum_m w_m (A_m - i B_m) e^{i m phi}, w_0 = 1, w_m = sqrt(2),
    # rescaled for irfft, which counts the bins other than 0 and n_phi / 2 twice
    w = np.where(m > 0, np.sqrt(2.0), 1.0) * np.where(r * (n_phi - 2 * r) == 0, n_phi, 0.5 * n_phi)
    spec = np.empty((2,) + A.shape, dtype=complex)
    spec[0].real, spec[0].imag = A, -B
    spec[1].real, spec[1].imag = alpha * dA + m * beta * B, m * beta * A - alpha * dB
    spec *= w * np.exp(1j * np.multiply.outer(phi, m))
    h = n_phi // 2 + 1
    if len(m) > h:
        # order m lands on bin r, or as its conjugate on bin n_phi - r
        conj = 2 * r > n_phi
        spec[..., conj] = spec[..., conj].conj()
        half = np.zeros(spec.shape[:-1] + (h,), dtype=complex)
        np.add.at(half.T, np.where(conj, n_phi - r, r), spec.T)
        spec = half
    out = np.fft.irfft(spec, n_phi, axis=-1)  # zero-pads up to bin n_phi / 2
    ang = 2.0 * np.pi * np.arange(n_phi) / n_phi
    c, s = np.cos(ang), np.sin(ang)
    for p in np.nonzero(np.sin(theta) <= _SIN_GUARD_GRAD)[0]:
        (x, y, z), (u, v, t) = pts[p], dirs[p]
        out[0, p], g = values_and_gradient_at(
            coeffs, np.stack([c * x - s * y, s * x + c * y, np.full(n_phi, z)], axis=1))
        out[1, p] = g[:, 0] * (c * u - s * v) + g[:, 1] * (s * u + c * v) + g[:, 2] * t
    return out[0], out[1]


def hessian_at(coeffs: HarmonicCoeffs, points, bases=None) -> np.ndarray:
    """Covariant Hessian on S^2 in per-point tangent bases, shape (N, 2, 2).

    ``bases`` defaults to :func:`christoffel.sphere.tangent_bases` at the
    points.  The trace equals the Laplace-Beltrami operator of the field.
    """
    pts, theta, phi = _points_angles(points)
    if bases is None:
        bases = tangent_bases(pts)
    e1, e2 = bases
    safe = np.sin(theta) > _SIN_GUARD_HESS
    H = np.zeros((len(pts), 2, 2))
    if np.any(safe):
        derivs = _point_eval(coeffs, theta[safe], phi[safe], _HESSIAN_TAGS)
        H[safe] = _frame_hessian(theta[safe], phi[safe], derivs, (e1[safe], e2[safe]))
    if not np.all(safe):
        K = 2 * coeffs.L_max + 2
        for i in np.nonzero(~safe)[0]:
            b1, b2 = e1[i], e2[i]
            h11 = _circle_d2(_circle_samples(coeffs, pts[i], b1, K))
            h22 = _circle_d2(_circle_samples(coeffs, pts[i], b2, K))
            diag = (b1 + b2) / np.sqrt(2.0)
            hdd = _circle_d2(_circle_samples(coeffs, pts[i], diag, K))
            h12 = hdd - 0.5 * (h11 + h22)
            H[i] = [[h11, h12], [h12, h22]]
    return H


def sphere_gradient(coeffs: HarmonicCoeffs, x) -> np.ndarray:
    """Spherical gradient at a single point, as an ambient tangent vector."""
    return gradient_at(coeffs, point_coords(x)[None, :])[0]


def sphere_hessian(coeffs: HarmonicCoeffs, x) -> np.ndarray:
    """Covariant Hessian at a single point, 2x2 in tangent_basis(x)."""
    return hessian_at(coeffs, point_coords(x)[None, :])[0]


def grid_gradient(field: SphericalField) -> np.ndarray:
    """Spherical gradient at every grid node, shape (N, 3)."""
    coeffs = require_coeffs(field)
    dth, dph = _grid_eval(coeffs, field.grid, (1, "phi"))
    theta, phi = _grid_angles(field.grid)
    return _frame_gradient(theta, phi, dth.ravel(), dph.ravel())


def grid_hessian(field: SphericalField, bases=None) -> np.ndarray:
    """Covariant Hessian at every grid node, shape (N, 2, 2).

    Grid nodes never sit at the poles, so the frame formulas apply directly.
    """
    coeffs = require_coeffs(field)
    grid = field.grid
    derivs = [d.ravel() for d in _grid_eval(coeffs, grid, _HESSIAN_TAGS)]
    if bases is None:
        bases = tangent_bases(grid.nodes)
    theta, phi = _grid_angles(grid)
    return _frame_hessian(theta, phi, derivs, bases)


# ----------------------------------------------------------------------
# Kernel orthogonality and the spectral solver
# ----------------------------------------------------------------------

def orthogonality_defect(f: SphericalField) -> np.ndarray:
    """Quadrature of (x_1 f, x_2 f, x_3 f) over the sphere, shape (3,)."""
    w = f.grid.weights * f.values
    return f.grid.nodes.T @ w


def degree1_magnitude(coeffs: HarmonicCoeffs) -> float:
    """L^2 norm of the degree-1 harmonic component."""
    return float(np.linalg.norm(coeffs.c[1:4]))


def project_out_linear(f: SphericalField) -> SphericalField:
    """Remove the degree-1 harmonic component from a field.

    The removed part is re-synthesized on the grid and subtracted from the
    sample values, so field = result + removed holds exactly in values.
    """
    grid = f.grid
    # degree-1 analysis only; cheap and needs no stored coefficients
    basis = np.stack(
        [_real_y1(grid.nodes, m) for m in (-1, 0, 1)], axis=1
    )  # (N, 3)
    c1 = basis.T @ (grid.weights * f.values)
    linear_vals = basis @ c1
    values = f.values - linear_vals
    coeffs = f.coeffs
    if coeffs is not None:
        c = coeffs.c.copy()
        c[1:4] = 0.0
        coeffs = HarmonicCoeffs(L_max=coeffs.L_max, c=c)
    return SphericalField(grid=grid, values=values, coeffs=coeffs)


def _real_y1(pts, m):
    # degree-1 real harmonics: sqrt(3/4pi) * (y, z, x) for m = -1, 0, 1
    k = np.sqrt(3.0 / (4.0 * np.pi))
    comp = {-1: 1, 0: 2, 1: 0}[m]
    return k * pts[:, comp]


def christoffel_residual(u: SphericalField, f: SphericalField) -> float:
    """Max-norm grid residual of (Laplacian + 2) u - f."""
    lu = synthesize(require_coeffs(u).apply_operator(), u.grid).values
    return float(np.max(np.abs(lu - f.values)))


def solve_christoffel(
    f: SphericalField, tol: float | None = None, project: bool = False
) -> SphericalField:
    """Solve (Laplacian + 2) u = f on S^2 spectrally.

    Degree-l coefficients are divided by 2 - l(l+1); the degree-1 component
    of the solution is set to zero (translation normalization).  The
    right-hand side must be orthogonal to the degree-1 harmonics: if its
    defect exceeds ``tol`` (default 1e-8 * max|f|) an OrthogonalityViolation
    is raised, unless ``project`` forces the defect to be projected away.
    """
    coeffs = require_coeffs(f)
    if tol is None:
        tol = 1e-8 * float(np.max(np.abs(f.values)))
    defect = orthogonality_defect(f)
    if np.max(np.abs(defect)) > tol and not project:
        raise OrthogonalityViolation(defect)
    rhs = project_out_linear(f) if project else f
    u = synthesize(require_coeffs(rhs).invert_operator(), f.grid)
    res = christoffel_residual(u, rhs)
    if res > 10.0 * max(tol, 1e-14):
        raise ChristoffelError(
            f"spectral solve residual {res:.3e} exceeds 10*tol={10 * tol:.3e}"
        )
    return u
