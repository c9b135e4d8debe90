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

Transform plan: every table a transform reads is built once and shared,
as in SHTns (Schaeffer 2013).  A grid's tables live in its slot
:attr:`SphereGrid.tables` and die with it: one Legendre table at its Gauss
nodes (:func:`_grid_blocks`) and one azimuth table (:func:`_azimuth_plan`).
The only caches here are module-level ``functools.lru_cache`` entries keyed
by band limit: the pair layout (:func:`_pair_index`), the coefficient
gather (:func:`_ladder_plan`) and the gathers of multiplication by the
coordinates (:func:`_coordinate_plan`), cut from one grown table of terms
that depend on no grid (:func:`_coordinate_store`).  Each grown table is
kept at the widest band asked for so far (:func:`_widest`): a wider band,
such as the L_max + 2 of the criterion channels, extends it by its new
degrees and orders only, by the same expressions, and a narrower band
reads views of it.  Every kept array is read-only, so a stray write raises
ValueError instead of corrupting later transforms, and results are
bit-identical to tables built afresh at each band.
:func:`_legendre_packed` forms the recursion coefficients and target rows
of all its degrees in one vectorized pass, which each step slices.  The
caches are the package's only module state: as each command builds its own
grid, emptying them (``cache_clear``) makes it pay what a fresh process
pays, and import fills none of them.

Every transform runs on one core.  The gather packs the coefficients into
columns per (m, l) pair: c_lm and c_l,-m for values, and for derivatives
the Laplacian -l(l + 1) c and the rungs of the order ladder (the
theta-derivative of P_l^m combines P_l^(m-1) and P_l^(m+1)).  One product
per order of the Legendre block with those columns (:func:`_contract`)
gives the theta profiles of one expansion or of a stack of channels at the
rings (:func:`synthesize_channels`, :attr:`SphericalField._profiles`).
One product with the azimuth table turns the profiles into values;
:func:`analyze` is the adjoint, with the same table, blocks and gather.
phi-derivatives multiply the profiles by m and m^2, and the theta-theta
entry is the Laplacian minus the phi-phi entry; each field keeps its
derivatives in its node frame (:attr:`SphericalField.gradient`,
:attr:`SphericalField.hessian`).

The solvability condition int x f = 0 concerns the degree-1 part of f
alone, and the real Y_1^m are sqrt(3/4pi) (x_2, x_3, x_1): so
:func:`orthogonality_defect` and :func:`project_out_linear` read it from
the coefficients and run no quadrature.
"""

from __future__ import annotations

import math
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
from .sphere import SphereGrid

DEFAULT_L_MAX = 32
DEFAULT_GRID_L = 48

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
    def _profiles(self) -> np.ndarray:
        """Profiles (L_max + 1, 2, 4, L) of the :func:`_ladder_plan`
        columns at the rings, order-major, one pass for the gradient and
        the Hessian: cosine and sine (axis 1) of value, Laplacian, down and
        up rung (axis 2)."""
        L_max = self.coeffs.L_max
        src, w = _ladder_plan(L_max)
        prof = _contract(_grid_blocks(self.grid, L_max), self.coeffs.c[src] * w, L_max)
        return _read_only(prof.reshape(L_max + 1, 2, 4, self.grid.L))[0]

    @cached_property
    def _slopes(self) -> np.ndarray:
        """Rows f_theta, f_phi (2, N) of gradient and Hessian, kept read-only."""
        return _read_only(_grid_derivatives(self, hessian=False))[0]

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

    Returns (m_arr, l_arr, offsets): the order and degree of each pair,
    and the pairs offsets[m]..offsets[m + 1] of order m.
    """
    counts = np.arange(L_max + 1, 0, -1)  # L_max + 1 - m degrees of order m
    offsets = np.concatenate([[0], np.cumsum(counts)])
    m_arr = np.repeat(np.arange(L_max + 1), counts)
    l_arr = np.arange(offsets[-1]) - offsets[m_arr] + m_arr
    return _read_only(m_arr, l_arr, offsets)


def _packed_band(P: np.ndarray) -> int:
    """Band limit of a packed table with (L_max + 1)(L_max + 2) / 2 rows."""
    return (math.isqrt(8 * P.shape[0] + 1) - 3) // 2


def _legendre_packed(t: np.ndarray, L_max: int, base: np.ndarray | None = None) -> np.ndarray:
    """Normalized associated Legendre values in the packed pair layout.

    Returns shape (n_pairs, len(t)) (pairs-major, so each pair is a
    contiguous row), t = cos theta.  Normalization: the basis function built
    from pair (l, m) and its azimuth factor has unit L^2 norm on the sphere.
    The sectoral rows P_m^m run up the orders, the rows P_(m+1)^m take one
    vectorized step, and the three-term degree recursion is vectorized
    across all orders m one degree l at a time; the coefficients and target
    rows of every degree come from one pass, which each step slices.

    ``base``, the packed table of a narrower band at the same t, is
    extended: its rows are copied and the recursion runs for the new
    degrees and orders only.  Every entry is the same expression of the
    same entries as in a table built from scratch, so the two are
    bit-identical.
    """
    m_arr, l_arr, offsets = _pair_index(L_max)
    t = np.asarray(t, dtype=float)
    s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    P = np.empty((len(m_arr), t.shape[0]))
    old = -1 if base is None else _packed_band(base)
    if base is None:
        P[0] = np.sqrt(1.0 / (4.0 * np.pi))
    else:
        P[l_arr <= old] = base
    pmm = P[offsets[max(old, 0)]]
    for m in range(max(old, 0) + 1, L_max + 1):
        pmm = pmm * s * np.sqrt((2.0 * m + 1.0) / (2.0 * m))
        P[offsets[m]] = pmm
    # the new rows P_(m+1)^m: degree m + 1 > old
    mv = np.arange(max(old, 0), L_max)
    coef = np.sqrt(2.0 * mv + 3.0)
    P[offsets[mv] + 1] = coef[:, None] * t[None, :] * P[offsets[mv]]
    # every new degree's coefficients and target rows in one pass, degree
    # ls[j] >= 2 and orders m <= l - 2 in entries starts[j]..starts[j + 1]
    ls = np.arange(max(old + 1, 2), L_max + 1)
    starts = np.concatenate([[0], np.cumsum(ls - 1)])
    j = np.repeat(np.arange(len(ls)), ls - 1)
    lv, mv = ls[j], np.arange(starts[-1]) - starts[j]
    a = np.sqrt((4.0 * lv * lv - 1.0) / (lv * lv - mv * mv))[:, None]
    b = np.sqrt(((lv - 1.0) ** 2 - mv * mv) / (4.0 * (lv - 1.0) ** 2 - 1.0))[:, None]
    tgt = offsets[mv] + lv - mv
    for j in range(len(ls)):
        step = slice(starts[j], starts[j + 1])
        rows = tgt[step]
        P[rows] = a[step] * (t * P[rows - 1] - b[step] * P[rows - 2])
    return P


def _widest(store: dict, name: str, band: int, extend):
    """The entry (table, band, views) of ``name`` in ``store`` at band
    ``band`` or wider: the kept one or, when that is narrower or missing, a
    new one holding ``extend(old)`` of the old table (None when missing).
    ``views`` holds the cuts callers keep of the table; they die with it."""
    kept = store.get(name)
    if kept is None or kept[1] < band:
        kept = store[name] = (extend(None if kept is None else kept[0]), band, {})
    return kept


def _grid_blocks(grid: SphereGrid, L_max: int):
    """Per-order views of the grid's one Legendre table cut to band L_max,
    entry m (L_max + 1 - m, L) with row l - m, kept beside the table.  The
    table is the packed P at the grid's Gauss nodes (:func:`_legendre_packed`)
    in :attr:`SphereGrid.tables`, at the widest band asked for so far."""
    P, band, views = _widest(grid.tables, "legendre", L_max, lambda base: _read_only(
        _legendre_packed(grid.polar_nodes, L_max, base))[0])
    if L_max not in views:
        offsets = _pair_index(band)[2]
        views[L_max] = tuple(P[offsets[m] : offsets[m] + L_max + 1 - m] for m in range(L_max + 1))
    return views[L_max]


def _azimuth_plan(grid: SphereGrid, L_max: int) -> np.ndarray:
    """The azimuth table of the grid, (2(L_max + 1), 2L): rows 2m and 2m + 1
    are cos m phi and sin m phi with the sqrt(2) factor for m > 0, in the
    row order of the profiles of :func:`_contract`, so that synthesis and
    the grid derivatives take one product with it and :func:`analyze` one
    with its transpose, with no reordering copy.  It is a view of the
    first rows of the grid's one azimuth table in :attr:`SphereGrid.tables`,
    to which a wider band appends the rows of its new orders."""

    def extend(old):
        m = np.arange(0 if old is None else len(old) // 2, L_max + 1)[:, None]
        arg = m * grid.phis[None, :]
        scale = np.where(m > 0, np.sqrt(2.0), 1.0)
        rows = np.stack([scale * np.cos(arg), scale * np.sin(arg)], axis=1).reshape(-1, 2 * grid.L)
        return _read_only(rows if old is None else np.concatenate([old, rows]))[0]

    return _widest(grid.tables, "azimuth", L_max, extend)[0][: 2 * (L_max + 1)]


@lru_cache(maxsize=8)
def _ladder_plan(L_max: int):
    """Gather table (src, w), each (n_pairs, 8), of the columns that grid
    derivatives contract with the Legendre table: column k of pair (m, l)
    is w[p, k] c[src[p, k]].  Columns 0-3 take cosine, 4-7 sine terms: c_lm,
    -l(l + 1) c_lm, the down rung a_l(m+1) c_l(m+1) / 2 of order m + 1 and
    the up rung -a_lm c_l(m-1) / 2 of order m - 1 (-a_l1 c_l0 at m = 1),
    with a_lm = sqrt((l + m)(l - m + 1)), from the order ladder d_theta
    P_l^m = (a_lm P_l^(m-1) - a_l(m+1) P_l^(m+1)) / 2, d_theta P_l^0 =
    -a_l1 P_l^1, which has no 1/sin(theta) (cf. SHTns, Schaeffer 2013).
    """
    m, l, _ = _pair_index(L_max)
    flat = l * l + l
    lap = -(l * (l + 1.0))
    down = 0.5 * np.sqrt((l + m + 1.0) * (l - m))
    up = -np.where(m == 1, 1.0, 0.5) * np.sqrt((l + m) * (l - m + 1.0))
    src = np.stack([flat + m, flat + m, flat + m + 1, flat + m - 1,
                    flat - m, flat - m, flat - m - 1, flat - m + 1], axis=1)
    w = np.stack([np.ones(len(m)), lap, down, np.where(m > 0, up, 0.0),
                  m > 0, np.where(m > 0, lap, 0.0), down, np.where(m > 1, up, 0.0)], axis=1)
    return _read_only(np.where(w != 0.0, src, 0), w)


def _contract(blocks, cols: np.ndarray, L_max: int) -> np.ndarray:
    """Theta profiles of the packed pair columns cols (n_pairs, W): one
    product per order m of the transposed rows of its pairs with its
    Legendre block (L_max + 1 - m, n_pts), each written into one contiguous
    slab of the order-major result (L_max + 1, W, n_pts)."""
    offsets = _pair_index(L_max)[2]
    out = np.empty((L_max + 1, cols.shape[1], blocks[0].shape[1]))
    for m, block in enumerate(blocks):
        np.matmul(cols[offsets[m] : offsets[m + 1]].T, block, out=out[m])
    return out


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
    n = L_max + 1
    src = _ladder_plan(L_max)[0]
    offsets = _pair_index(L_max)[2]
    out = np.empty((len(src), 2))
    with np.errstate(over="ignore", invalid="ignore"):
        F = values.reshape(grid.L, -1) @ _azimuth_plan(grid, L_max).T * (np.pi / grid.L)
        F *= grid.polar_weights[:, None]
        F = F.reshape(grid.L, n, 2)  # (ring, order, cosine and sine)
        for m, block in enumerate(_grid_blocks(grid, L_max)):
            np.matmul(block, F[:, m], out=out[offsets[m] : offsets[m + 1]])
    c = np.empty(n * n)
    # the order-0 sine column lands on src 0, where the cosine scatter,
    # which comes second, writes c_00
    c[src[:, 4]] = out[:, 1]
    c[src[:, 0]] = out[:, 0]
    return HarmonicCoeffs(L_max=L_max, c=c)


def synthesize(coeffs: HarmonicCoeffs, grid: SphereGrid) -> SphericalField:
    """Evaluate the expansion on a grid; attaches the coefficients."""
    return SphericalField(grid=grid, values=synthesize_channels(coeffs.c, grid), coeffs=coeffs)


def synthesize_channels(c: np.ndarray, grid: SphereGrid) -> np.ndarray:
    """Values on the grid of the expansion with flat coefficients c, (K,)
    -> (N,), or of the C expansions that are the columns of c, (K, C) ->
    (N, C): one product per order for all channels (:func:`_contract`) of
    the pair columns c_lm of every channel, then c_l,-m (0 at m = 0), by
    columns 0 and 4 of :func:`_ladder_plan`, then one with the azimuth
    table."""
    L_max = math.isqrt(c.shape[0]) - 1
    src, w = (a[:, (0, 4)] for a in _ladder_plan(L_max))
    cols = (c[src] * w.reshape(w.shape + (1,) * (c.ndim - 1))).reshape(len(src), -1)
    prof = _contract(_grid_blocks(grid, L_max), cols, L_max)
    # rows (order, cosine and sine) as the table's, columns (channel, ring)
    vals = prof.reshape(2 * (L_max + 1), -1).T @ _azimuth_plan(grid, L_max)
    return np.moveaxis(vals.reshape(c.shape[1:] + (grid.node_count,)), -1, 0)


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
# Multiplication by the coordinates
# ----------------------------------------------------------------------

@lru_cache(maxsize=4)
def _coordinate_plan(band: int):
    """Gather tables of multiplication by x_0, x_1, x_2 from band ``band``
    to band + 1: (src, w, degree).  src and w are (2, 2, K, 3), axes (the
    lowering and the raising part, source slot, target flat index,
    coordinate j): target t of part p is sum_s w[p, s, t, j] c[src[p, s, t,
    j]].  degree (K,) is the degree of each target.

    In the complex basis Y_l^k = P_l^|k| e^{i k phi}, multiplication by z
    keeps the order, with coefficient Z, and x + iy resp. x - iy move order
    k to k + 1 resp. k - 1 with coefficients P resp. Q.  From source degree
    l and order k >= 0 the raising part (to l + 1) has P = A, Q = -C and Z
    = sqrt(((l + 1)^2 - k^2) / ((2l + 1)(2l + 3))), the lowering part (to l
    - 1) P = -B, Q = D and Z = sqrt((l^2 - k^2) / ((2l - 1)(2l + 1))), with

        A = sqrt((l + k + 1)(l + k + 2) / ((2l + 1)(2l + 3))),
        B = sqrt((l - k)(l - k - 1) / ((2l - 1)(2l + 1))),
        C = sqrt((l - k + 1)(l - k + 2) / ((2l + 1)(2l + 3))),
        D = sqrt((l + k)(l + k - 1) / ((2l - 1)(2l + 1))).

    With x = ((x + iy) + (x - iy)) / 2, y = ((x + iy) - (x - iy)) / 2i and
    the complex coefficients a_0 = c_0, a_{+-k} = (c_k -+ i c_{-k}) /
    sqrt(2) of a real expansion, target order m of x c and y c draws on
    source order |m| - 1 (slot 0, times P / 2) and |m| + 1 (slot 1, times
    Q / 2).  x keeps cosine and sine terms, y swaps them and negates slot 0
    into a cosine and slot 1 into a sine target.  A cosine source of order
    0 weighs sqrt(2) and a sine one does not exist; target order 0 takes
    slot 1 alone, times sqrt(2).  z c draws on order m in slot 0.

    The gathers are cut from the one table of terms of a command
    (:func:`_coordinate_terms`), to which a wider band appends the targets
    of its new degrees: the terms whose source lies above ``band`` drop out.
    """
    src, w = _widest(_coordinate_store(), "coordinates", band,
                     lambda old: _coordinate_terms(old, band + 1))[0]
    degrees = np.arange(band + 2)
    l = np.repeat(degrees, 2 * degrees + 1)
    src, w = src[:, :, : len(l)], w[:, :, : len(l)]
    ok = (src >= 0) & (src < (band + 1) ** 2)
    return _read_only(np.where(ok, src, 0), np.where(ok, w, 0.0), l)


@lru_cache(maxsize=1)
def _coordinate_store() -> dict:
    """The slot of the terms of multiplication by the coordinates, which
    depend on no grid, kept at the widest band asked for so far
    (:func:`_widest`).  Emptying this cache drops them."""
    return {}


def _coordinate_terms(old, top: int):
    """The terms (src, w) of :func:`_coordinate_plan` of the targets of
    degree <= ``top`` at any band, read-only: the source index src is -1
    where a term has no source.  ``old``, the terms up to a lower degree,
    is extended by the targets above it."""
    lo = 0 if old is None else math.isqrt(old[0].shape[2])
    degrees = np.arange(lo, top + 1)
    l = np.repeat(degrees, 2 * degrees + 1)
    m = np.arange(lo * lo, (top + 1) ** 2) - l * l - l
    mu, sine = np.abs(m), m < 0
    step = np.array([[-1], [1]])  # the lowering and the raising part
    ls = l - step  # source degree, (2, K)
    den = (2 * ls + 1) * (2 * ls + 1 + 2 * step)

    def root(num):
        return np.sqrt(np.maximum(num / den, 0.0))

    up, k, q = step > 0, mu - 1, mu + 1
    P = np.where(up, root((ls + k + 1) * (ls + k + 2)), -root((ls - k) * (ls - k - 1)))
    Q = np.where(up, -root((ls - q + 1) * (ls - q + 2)), root((ls + q) * (ls + q - 1)))
    Z = root(np.where(up, (ls + 1) ** 2, ls * ls) - mu * mu)
    orders = np.empty((2, len(l), 3), dtype=int)
    weights = np.zeros((2, 2, len(l), 3))
    for j, from_sine in ((0, sine), (1, ~sine)):
        # the factors of slot 0 and slot 1 at each target
        f0 = np.where(m == 0, 0.0, np.where(k == 0, np.where(from_sine, 0.0, np.sqrt(2.0)), 1.0))
        f1 = np.where(m == 0, np.sqrt(2.0), 1.0)
        if j == 1:
            f0, f1 = np.where(m > 0, -f0, f0), np.where(sine, -f1, f1)
        orders[0, :, j] = np.where(from_sine, -k, k)
        orders[1, :, j] = np.where(from_sine, -q, q)
        weights[:, 0, :, j] = 0.5 * f0 * P
        weights[:, 1, :, j] = 0.5 * f1 * Q
    orders[0, :, 2], orders[1, :, 2] = m, 0
    weights[:, 0, :, 2] = Z
    ls = ls[:, None, :, None]
    ok = (ls >= 0) & (np.abs(orders) <= ls) & (weights != 0.0)
    new = np.where(ok, ls * ls + ls + orders, -1), np.where(ok, weights, 0.0)
    if old is not None:
        new = (np.concatenate(pair, axis=2) for pair in zip(old, new))
    return _read_only(*new)


def coordinate_product(c: np.ndarray) -> np.ndarray:
    """Products x_j g, j = 0, 1, 2, of the expansion g with flat
    coefficients c at band L, (K,) or (K, C) for C channels.

    Multiplication by a coordinate moves degree l to l - 1 and l + 1 only
    (as the spectral operators of SHTns, Schaeffer 2013), by the gather
    tables of :func:`_coordinate_plan`.  Returns the lowering and the
    raising part apart, stacked (2, K', 3, ...) with K' = (L + 2)^2 at band
    L + 1 and the coordinate j on the axis after it: x_j g is their sum.
    The operator is symmetric, so the lowering part from band L + 1 is the
    transpose of the raising part from band L.
    """
    c = np.asarray(c)
    src, w, _ = _coordinate_plan(math.isqrt(c.shape[0]) - 1)
    terms = np.take(c, src, axis=0) * w.reshape(w.shape + (1,) * (c.ndim - 1))
    return terms[:, 0] + terms[:, 1]


def ambient_gradient(c: np.ndarray, d: int) -> np.ndarray:
    """Ambient gradient on S^2 of the d-homogeneous extension |y|^d g(y/|y|)
    of the expansion g with flat coefficients c (K,) or (K, C): grad g +
    d g x, at band L + 1, (K', 3, ...) with the component j second.

    With g_k the degree-k part, the solid harmonic |y|^k g_k has d_j =
    (2k + 1) [x_j g_k]_{k-1} on S^2 (its derivative is a solid harmonic of
    degree k - 1), and the extension of g_k is |y|^{d-k} times it; so d_j =
    (k + d + 1) [x_j g_k]_{k-1} + (d - k) [x_j g_k]_{k+1}, weighted by the
    source degree k, from the two parts of :func:`coordinate_product`.
    """
    lower, upper = coordinate_product(c)
    l = _coordinate_plan(math.isqrt(np.shape(c)[0]) - 1)[2]
    l = l.reshape((-1,) + (1,) * (lower.ndim - 1))
    return (l + d + 2) * lower + (d + 1 - l) * upper


# ----------------------------------------------------------------------
# Grid derivatives
# ----------------------------------------------------------------------

def _grid_derivatives(field: SphericalField, hessian: bool) -> np.ndarray:
    """Rows f_theta and f_phi or, with ``hessian``, f_theta_phi, f_phi_phi
    and the Laplacian at the grid nodes, (2 or 3, N), from the field's
    profiles: d_theta of order m sums the down rung of order m - 1 and the
    up rung of order m + 1; d_phi maps the cosine and sine profiles (X, Y)
    to m (Y, -X)."""
    prof = field._profiles
    n = prof.shape[0]
    m = np.arange(n)[:, None, None]
    turn = m * np.array([[1.0], [-1.0]])
    val = prof[:, :, 0]
    dth = np.zeros_like(val)
    dth[1:] = prof[:-1, :, 2]
    dth[:-1] += prof[1:, :, 3]
    rows = ([turn * dth[:, ::-1], -(m * m) * val, prof[:, :, 1]] if hessian
            else [dth, turn * val[:, ::-1]])
    # rows (order, cosine and sine) as the table's, columns (row, ring)
    X = np.stack(rows, axis=2).reshape(2 * n, -1)
    return (X.T @ _azimuth_plan(field.grid, n - 1)).reshape(len(rows), -1)


def grid_gradient(field: SphericalField) -> np.ndarray:
    """Spherical gradient at every grid node, shape (N, 3): e_theta d_theta
    + e_phi d_phi / sin(theta), with no node at a pole."""
    dth, dph = field._slopes
    frame = field.grid.frame
    return frame.e_th * dth[:, None] + frame.e_ph * (dph / frame.sin)[:, None]


def grid_hessian(field: SphericalField) -> np.ndarray:
    """Covariant Hessian at every grid node, shape (N, 2, 2), in the node
    frame (e_theta, e_phi) of :attr:`SphereGrid.frame`: h_thph = (f_thph -
    cot(theta) f_ph) / sin(theta), h_phph = f_phph / sin^2(theta) +
    cot(theta) f_th and, by the trace, h_thth = Laplacian f - h_phph.  No
    node sits at a pole, so the frame holds at every node unrotated.
    """
    dth, dph = field._slopes
    dthph, dphph, lap = _grid_derivatives(field, hessian=True)
    s, c = field.grid.frame.sin, field.grid.frame.cos
    H = np.empty((len(s), 2, 2))
    H[:, 0, 1] = H[:, 1, 0] = (dthph - (c / s) * dph) / s
    H[:, 1, 1] = dphph / (s * s) + (c / s) * dth
    H[:, 0, 0] = lap - H[:, 1, 1]
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
