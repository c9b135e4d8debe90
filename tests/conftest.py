import sys
from dataclasses import dataclass

import numpy as np
import pytest

from christoffel import body, convexity, harmonics, sphere
from christoffel.errors import InvalidParameter

import offgrid


def clear_program_caches():
    """Empty every functools cache of the package, as a fresh process has
    them."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("christoffel."):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == name:
                    obj.cache_clear()


L16 = ["--L", "16", "--Lmax", "8"]


def cli_commands(tmp):
    """Every subcommand at a small size, a ``file:`` input, one with the
    grid's row count and a malformed value (written here), ``--project``,
    an orthogonality error, a failing ``lp`` and the kernels of an odd
    dimension: (argv, expected exit code, expected error type or None)."""
    u_csv, obj = str(tmp / "u.csv"), str(tmp / "body.obj")
    bad_csv = tmp / "bad.csv"
    bad_csv.write_text("theta,phi,value\n" + "0,0,1\n" * 511 + "0,0,1x\n", encoding="utf-8")
    degree1 = "family:harmonic:l=1,m=0,eps=0.6,base=2"
    bump = "family:harmonic:l=2,m=1,eps=0.1,base=2"
    return [
        (["solve", "--input", "family:constant:c=2", "--out", u_csv] + L16, 0, None),
        (["solve", "--input", f"file:{u_csv}"] + L16, 0, None),
        (["solve", "--input", f"file:{bad_csv}"] + L16, 1, "ParseError"),
        (["solve", "--input", degree1] + L16, 1, "OrthogonalityViolation"),
        (["solve", "--input", degree1, "--project"] + L16, 0, None),
        (["check", "--input", "family:ellipsoid:a=1,b=1.2,c=1.5", "--L", "16", "--Lmax", "10"],
         0, None),
        (["lp", "--p", "4", "--input", bump] + L16, 0, None),
        (["lp", "--p", "2", "--input", bump] + L16, 0, None),
        (["lp", "--p", "4", "--input", "family:ellipsoid:a=0.8,b=1.2,c=1.6"] + L16,
         1, "NonConvergence"),
        (["gamma", "--n", "2", "--alpha", "0.5", "--mc-samples", "1000"], 0, None),
        (["kernels", "--n", "2", "--out", str(tmp / "kernels.csv")], 0, None),
        # odd n takes the sin-power route of the kernels
        (["kernels", "--n", "7", "--out", str(tmp / "kernels7.csv")], 0, None),
        (["reconstruct", "--input", "family:ellipsoid:a=1,b=1.2,c=0.8", "--obj", obj,
          "--out", u_csv] + L16, 0, None),
    ]


@pytest.fixture(scope="session")
def grid16():
    return sphere.make_grid(16)


@pytest.fixture(scope="session")
def grid24():
    return sphere.make_grid(24)


@pytest.fixture(scope="session")
def grid48():
    return sphere.make_grid(48)


def harmonic_field(grid, base, terms, L_max=16):
    """Field base + sum(eps * Y_l^m) built exactly in coefficient space."""
    c = np.zeros((L_max + 1) ** 2)
    c[0] = base * np.sqrt(4.0 * np.pi)
    for (l, m), eps in terms.items():
        c[harmonics.HarmonicCoeffs.index(l, m)] += eps
    return harmonics.synthesize(harmonics.HarmonicCoeffs(L_max=L_max, c=c), grid)


def sampled_field(grid, values, L_max):
    """The field of the samples ``values`` at the grid nodes, with their
    coefficients at band limit L_max (not exact unless band-limited)."""
    return harmonics.SphericalField(grid=grid, values=values,
                                    coeffs=harmonics.analyze(grid, values, L_max))


def constant_field(grid, value, L_max=16):
    return harmonic_field(grid, value, {}, L_max)


def random_positive_field(grid, rng, base=2.0, amp=0.3, l_max_content=5, L_max=16):
    """Seeded band-limited field, rescaled to keep min >= base * 0.25."""
    c = np.zeros((L_max + 1) ** 2)
    for l in range(1, l_max_content + 1):
        for m in range(-l, l + 1):
            c[harmonics.HarmonicCoeffs.index(l, m)] = rng.normal(0.0, amp / l)
    c[0] = 0.0
    bump = harmonics.synthesize(harmonics.HarmonicCoeffs(L_max=L_max, c=c), grid)
    span = float(np.max(np.abs(bump.values)))
    scale = min(1.0, 0.75 * base / span) if span > 0 else 1.0
    return harmonic_field(
        grid,
        base,
        {
            (l, m): scale * c[harmonics.HarmonicCoeffs.index(l, m)]
            for l in range(1, l_max_content + 1)
            for m in range(-l, l + 1)
        },
        L_max,
    )


@pytest.fixture(scope="session")
def const2_48(grid48):
    return constant_field(grid48, 2.0, L_max=32)


def rotate_about_z(coeffs, angle):
    """Coefficients of f(R^-1 x) for the rotation R by ``angle`` about z."""
    c = coeffs.c.copy()
    for l in range(coeffs.L_max + 1):
        for m in range(1, l + 1):
            a, b = coeffs.c[coeffs.index(l, m)], coeffs.c[coeffs.index(l, -m)]
            c[l * l + l + m] = a * np.cos(m * angle) - b * np.sin(m * angle)
            c[l * l + l - m] = a * np.sin(m * angle) + b * np.cos(m * angle)
    return harmonics.HarmonicCoeffs(L_max=coeffs.L_max, c=c)


@dataclass(frozen=True)
class Sphere:
    """Ball of radius R, support function u = R: a body for
    :func:`body.support_function`, which samples its ``support_values``."""

    R: float

    def __post_init__(self):
        if self.R <= 0:
            raise InvalidParameter("sphere radius must be positive")

    def support_values(self, points):
        return np.full(len(points), float(self.R))


# ----------------------------------------------------------------------
# Off-grid Hessians in tangent bases: oracles of the grid Hessian
# ----------------------------------------------------------------------

def hessian_at(coeffs, points):
    """Covariant Hessian on S^2, shape (N, 2, 2), in the per-point tangent
    bases E of :func:`christoffel.sphere.tangent_bases`: E^T D^2 G E - g I,
    D^2 G the ambient Hessian of the 1-homogeneous extension.  The points
    may be poles, where no (e_theta, e_phi) frame exists.  The trace equals
    the Laplace-Beltrami operator of the field.  g is padded to the band of
    the D^2 G channels, so one set of theta profiles serves all seven.
    ``sphere.tangent_bases`` is read through the module, so a test that
    patches it sees the call."""
    pts = np.asarray(points, dtype=float)
    band = coeffs.L_max + 2
    g = harmonics.HarmonicCoeffs(L_max=band, c=np.pad(coeffs.c, (0, (band + 1) ** 2 - coeffs.c.size)))
    chans = offgrid.synthesize_at(offgrid.extension_channels(coeffs).hess + (g,), pts)
    E = np.stack(sphere.tangent_bases(pts), axis=2)
    T = np.einsum("nki,nkl,nlj->nij", E, chans[:, convexity._SYM_FULL], E)
    return T - chans[:, -1, None, None] * np.eye(2)


# ----------------------------------------------------------------------
# Theta-derivative tables: the oracle of the grid derivatives
# ----------------------------------------------------------------------

def legendre_theta_tables(t, L_max):
    """Packed P and its first two theta-derivatives at t = cos theta, as
    three tables: dP/dtheta = (l t P_l^m - c_lm P_(l-1)^m) / sin(theta)
    entry by entry and d^2P/dtheta^2 by the Legendre ODE, P'' = -cot(theta)
    P' - (l(l + 1) - m^2 / sin^2(theta)) P.  Both divide by sin(theta),
    where the program's order ladder does not."""
    m_arr, l_arr, offsets = harmonics._pair_index(L_max)[:3]
    t = np.asarray(t, dtype=float)
    P = harmonics._legendre_packed(t, L_max)
    s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    inv_s = np.where(s > 0, 1.0 / np.maximum(s, 1e-300), 0.0)
    has_prev = l_arr > m_arr
    P_prev = np.zeros_like(P)
    P_prev[has_prev] = P[np.flatnonzero(has_prev) - 1]
    c_lm = np.sqrt((2.0 * l_arr + 1.0) * (l_arr * l_arr - m_arr * m_arr)
                   / np.maximum(2.0 * l_arr - 1.0, 1.0))
    D1 = (l_arr[:, None] * t[None, :] * P - c_lm[:, None] * P_prev) * inv_s[None, :]
    D2 = (-(t * inv_s)[None, :] * D1
          - ((l_arr * (l_arr + 1.0))[:, None]
             - (m_arr * m_arr)[:, None] * (inv_s * inv_s)[None, :]) * P)
    return P, D1, D2


def ref_coeff_stacks(coeffs):
    """Per-order coefficients (cos, sin) of the expansion, lists indexed by
    m: entry m lists c_lm resp. c_l,-m for l = m..L_max (None for the sine
    of order 0)."""
    L = coeffs.L_max
    cos_c, sin_c = [], []
    for m in range(L + 1):
        ls = np.arange(m, L + 1)
        cos_c.append(coeffs.c[ls * ls + ls + m])
        sin_c.append(coeffs.c[ls * ls + ls - m] if m > 0 else None)
    return cos_c, sin_c


def ref_theta_stacks(blocks, cos_c, sin_c, L_max):
    """Theta profiles (A, B), each (n_pts, L_max + 1), of the per-order
    coefficients of :func:`ref_coeff_stacks`: two vector-matrix products per
    order with the Legendre blocks (L_max + 1 - m, n_pts)."""
    n_pts = blocks[0].shape[1]
    A = np.zeros((n_pts, L_max + 1))
    B = np.zeros((n_pts, L_max + 1))
    for m in range(L_max + 1):
        A[:, m] = cos_c[m] @ blocks[m]
        if sin_c[m] is not None:
            B[:, m] = sin_c[m] @ blocks[m]
    return A, B


def table_profiles(coeffs, t):
    """Theta profiles (A, B) of the field and of its first two
    theta-derivatives at t = cos theta, from :func:`legendre_theta_tables`:
    three pairs, each (n_pts, L_max + 1)."""
    L_max = coeffs.L_max
    stacks = ref_coeff_stacks(coeffs)
    return [ref_theta_stacks(offgrid.order_blocks(table, L_max), *stacks, L_max)
            for table in legendre_theta_tables(t, L_max)]


def table_grid_derivatives(field):
    """Gradient (N, 3) and covariant Hessian (N, 2, 2) at the grid nodes in
    the node frame, from the three tables of :func:`legendre_theta_tables`,
    the theta-theta entry from the second-derivative table."""
    grid, L_max = field.grid, field.coeffs.L_max
    (A0, B0), (A1, B1), (A2, B2) = table_profiles(field.coeffs, grid.polar_nodes)
    table = harmonics._azimuth_plan(grid, L_max)
    cos_t, sin_t = table[0::2], table[1::2]
    m = np.arange(L_max + 1)[None, :]

    def synth(A, B):
        return (A @ cos_t + B @ sin_t).ravel()

    dth, dph = synth(A1, B1), synth(m * B0, -m * A0)
    dthth, dthph, dphph = synth(A2, B2), synth(m * B1, -m * A1), synth(-m * m * A0, -m * m * B0)
    frame = grid.frame
    s, c = frame.sin, frame.cos
    grad = frame.e_th * dth[:, None] + frame.e_ph * (dph / s)[:, None]
    H = np.empty((len(s), 2, 2))
    H[:, 0, 0] = dthth
    H[:, 0, 1] = H[:, 1, 0] = (dthph - (c / s) * dph) / s
    H[:, 1, 1] = dphph / (s * s) + (c / s) * dth
    return grad, H


# ----------------------------------------------------------------------
# Channels on a second Gauss grid: the oracle of multiplication by the
# coordinates, of the extension channels and of the criterion forms
# ----------------------------------------------------------------------

def channel_grid(L_max):
    """The Gauss grid L_max + 3 (at least 4): it analyzes every product of
    an expansion of band L_max with two coordinates, of degree <= L_max +
    2, exactly."""
    return sphere.make_grid(max(L_max + 3, 4))


def grid_coordinate_product(c, j, grid):
    """Coefficients of x_j g at band L + 1, for g with flat coefficients c
    at band L: x_j times g's values at the nodes of ``grid``, analyzed."""
    L_max = int(np.sqrt(len(c))) - 1
    g = harmonics.synthesize(harmonics.HarmonicCoeffs(L_max=L_max, c=c), grid)
    return harmonics.analyze(grid, grid.nodes[:, j] * g.values, L_max + 1).c


def grid_extension_channels(coeffs):
    """DG and D^2 G of the 1-homogeneous extension from the grid gradient
    and Hessian of g on :func:`channel_grid`, analyzed at their exact
    bands: (DG (K1, 3), D^2 G (K2, 6) packed as convexity._SYM_ROWS/COLS)."""
    L_max = coeffs.L_max
    field = harmonics.synthesize(coeffs, channel_grid(L_max))
    grid, g = field.grid, field.values
    DG = field.gradient + g[:, None] * grid.nodes
    E = np.stack([grid.frame.e_th, grid.frame.e_ph], axis=2)  # (N, 3, 2)
    H = field.hessian + g[:, None, None] * np.eye(2)
    D2G = np.einsum("nik,nkl,njl->nij", E, H, E)[:, convexity._SYM_ROWS, convexity._SYM_COLS]
    return (np.stack([harmonics.analyze(grid, v, L_max + 1).c for v in DG.T], axis=1),
            np.stack([harmonics.analyze(grid, v, L_max + 2).c for v in D2G.T], axis=1))


def grid_criterion_forms(f, criterion):
    """:func:`convexity.criterion_forms` with the channels sym(z (x) V) resp.
    f z z^T formed on :func:`channel_grid` from f's values and grid
    gradient there, analyzed at band L_max + 2 and synthesized channel by
    channel on f's grid."""
    crit = convexity.Criterion(criterion)
    coeffs = f.coeffs
    L_max = coeffs.L_max
    g = harmonics.synthesize(coeffs, channel_grid(L_max))
    Z = g.grid.nodes
    rows, cols = convexity._SYM_ROWS, convexity._SYM_COLS
    if crit is convexity.Criterion.CR1:
        V = g.gradient - g.values[:, None] * Z
        chans = 0.5 * (Z[:, rows] * V[:, cols] + Z[:, cols] * V[:, rows])
    else:
        chans = g.values[:, None] * Z[:, rows] * Z[:, cols]
    mu = convexity._multipliers(crit, L_max)
    S = np.stack([harmonics.synthesize(harmonics.HarmonicCoeffs(
        L_max=L_max + 2, c=mu * harmonics.analyze(g.grid, v, L_max + 2).c), f.grid).values
        for v in chans.T], axis=-1)[:, convexity._SYM_FULL]
    if crit is convexity.Criterion.CR1:
        return np.zeros(len(S)), S
    scalar = harmonics.HarmonicCoeffs(
        L_max=L_max, c=-(convexity._harmonic_numbers(L_max) + 0.5) * coeffs.c)
    return harmonics.synthesize(scalar, f.grid).values, S


def principal_radii(u, x):
    """Principal curvature radii at normal direction x: the eigenvalues of
    D^2 U(x) on the tangent plane (U the 1-homogeneous extension of u),
    which are those of Hess u(x) + u(x) I, returned sorted ascending."""
    xc = np.asarray(x, dtype=float)
    E = np.stack(sphere.tangent_bases(xc[None]), axis=2)[0]
    D2U = offgrid.extension_hessian_at(u.coeffs, xc[None, :])[0]
    r = np.linalg.eigvalsh(E.T @ D2U @ E)
    return float(r[0]), float(r[1])


def ref_obj_text(mesh):
    """Reference OBJ text of :func:`body.write_obj`: every float of the v
    and vn lines formatted by its own %r, no value shared."""
    return "".join(line * len(rows) % tuple(rows.ravel().tolist())
                   for line, rows in (("v %r %r %r\n", mesh.vertices),
                                      ("vn %r %r %r\n", mesh.normals),
                                      ("f %d %d %d\n", mesh.faces + 1)))


# ----------------------------------------------------------------------
# Dense Galerkin matrix: the oracle of the matrix-free L_p solvers
# ----------------------------------------------------------------------

def galerkin_matrix(values, grid, L_max):
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
    P = np.concatenate(harmonics._grid_blocks(grid, L_max))
    offsets = harmonics._pair_index(L_max)[2]
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


def dense_eigenpair(f):
    """Principal pair of D c = lambda M c by ``scipy.linalg.eigh``, with M
    the dense Galerkin matrix of f: (lambda, u values normalized to
    max u = 1)."""
    import scipy.linalg

    L_max = f.coeffs.L_max
    M = galerkin_matrix(f.values, f.grid, L_max)
    vals, vecs = scipy.linalg.eigh(np.diag(harmonics.operator_diagonal(L_max)), M)
    c = vecs[:, -1]
    uv = harmonics.synthesize(harmonics.HarmonicCoeffs(L_max=L_max, c=c), f.grid).values
    return float(vals[-1]), uv / uv[np.argmax(np.abs(uv))]


# ----------------------------------------------------------------------
# Analytic ellipsoid oracles
# ----------------------------------------------------------------------

def ellipsoid_ambient_hessian(ell: body.Ellipsoid, x) -> np.ndarray:
    """Ambient Hessian of the 1-homogeneous support function at |x| = 1:
    diag(a^2)/h - (a^2 x)(a^2 x)^T / h^3."""
    xc = np.asarray(x, dtype=float)
    A = ell.axes_sq
    h = float(np.sqrt(xc**2 @ A))
    v = A * xc
    return np.diag(A) / h - np.outer(v, v) / h**3


def ellipsoid_forward_f(ell: body.Ellipsoid, points) -> np.ndarray:
    """Analytic sum of principal radii: (a^2+b^2+c^2)/h - sum a_i^4 x_i^2 / h^3."""
    pts = np.asarray(points, dtype=float)
    A = ell.axes_sq
    h = np.sqrt(pts**2 @ A)
    return A.sum() / h - (pts**2 @ A**2) / h**3


def ellipsoid_principal_radii(ell: body.Ellipsoid, x):
    """Analytic principal radii: eigenvalues of the tangent-restricted
    ambient Hessian of the support function."""
    xc = np.asarray(x, dtype=float)
    E = np.stack(sphere.tangent_bases(xc[None]), axis=2)[0]
    r = np.linalg.eigvalsh(E.T @ ellipsoid_ambient_hessian(ell, xc) @ E)
    return float(r[0]), float(r[1])


def frame_vectors(theta, phi):
    """e_theta and e_phi at colatitudes theta and azimuths phi, each (n, 3)."""
    st, ct = np.sin(theta), np.cos(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    return (np.stack([ct * cp, ct * sp, -st], axis=-1),
            np.stack([-sp, cp, np.zeros_like(sp)], axis=-1))


def rotate_forms(H, frame, bases):
    """2x2 forms H (n, 2, 2) written in the frame (f1, f2), rewritten in the
    bases (e1, e2): R H R^T with R[i, j] = <e_i, f_j>, all (n, 3)."""
    R = np.stack([np.stack([np.sum(e * f, axis=1) for f in frame], axis=1) for e in bases],
                 axis=1)
    return R @ H @ np.swapaxes(R, 1, 2)


def theta_profile_derivatives(coeffs, theta, nderiv):
    """The first ``nderiv`` theta-derivatives of the profiles that
    :func:`offgrid.theta_profiles` evaluates, at colatitudes ``theta``: a
    list of ``nderiv`` pairs (A, B), each (n_pts, L_max + 1).

    Each profile is a series sum_k a_k cos k theta + b_k sin k theta, from
    one real FFT of its values at the L_max + 2 colatitudes pi j / (L_max +
    1) mirrored onto the circle, as in the program; a derivative maps the
    coefficients (a_k, b_k) to (k b_k, -k a_k).
    """
    L_max, n = coeffs.L_max, coeffs.L_max + 1
    A, B = ref_theta_stacks(offgrid.profile_blocks(L_max), *ref_coeff_stacks(coeffs), L_max)
    prof = np.concatenate([A, B], axis=1)
    circle = np.concatenate([prof, np.tile((-1.0) ** np.arange(n), 2) * prof[-2:0:-1]])
    F = np.fft.rfft(circle, axis=0)[:n] / n
    F[0] *= 0.5
    a, b = F.real, -F.imag
    k = np.arange(n)[:, None]
    kt = np.multiply.outer(theta, np.arange(n))
    out = []
    for _ in range(nderiv):
        a, b = k * b, -k * a
        P = np.cos(kt) @ a + np.sin(kt) @ b
        out.append((P[:, :n], P[:, n:]))
    return out


# ----------------------------------------------------------------------
# Sampled symmetry monotonicity (T33): the oracle of convexity.check_T33
# ----------------------------------------------------------------------

# below this sin(theta) the rotating (e_theta, e_phi) frame of an orbit is
# undefined, and the orbit takes point derivatives instead
SIN_GUARD = 1e-8


def orbit_values_and_slopes(coeffs, points, dirs, n_phi):
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
    Points within SIN_GUARD of a pole take
    :func:`offgrid.values_and_gradient_at` at every rotated point.
    """
    pts, theta, phi = offgrid.points_angles(points)
    dirs = np.asarray(dirs, dtype=float)
    st = np.sin(theta)
    e_th, e_ph = frame_vectors(theta, phi)
    alpha = np.sum(dirs * e_th, axis=1)[:, None]
    beta = (np.sum(dirs * e_ph, axis=1) / np.maximum(st, SIN_GUARD))[:, None]
    A, B = offgrid.theta_profiles(coeffs, theta)
    (dA, dB), = theta_profile_derivatives(coeffs, theta, 1)
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
    for p in np.nonzero(st <= SIN_GUARD)[0]:
        (x, y, z), (u, v, t) = pts[p], dirs[p]
        out[0, p], g = offgrid.values_and_gradient_at(
            coeffs, np.stack([c * x - s * y, s * x + c * y, np.full(n_phi, z)], axis=1))
        out[1, p] = g[:, 0] * (c * u - s * v) + g[:, 1] * (s * u + c * v) + g[:, 2] * t
    return out[0], out[1]


def t33_samples(coeffs, grid, ts, angles):
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
    vals, dxi = orbit_values_and_slopes(coeffs, pts.reshape(-1, 3), xi_p, grid.azimuth_count)
    shape = pts.shape[:3] + (grid.node_count,)
    return vals.reshape(shape), dxi.reshape(shape)


def t33_differences(f, ts, angles):
    """Sampled T33 quantity d_xi F(x + t xi) - d_xi F(x - t xi) of the
    degree-(-1) extension F, (n_xi, n_t, N): off-sphere evaluations reduce
    to sphere values by homogeneity."""
    vals, dxi = t33_samples(f.coeffs, f.grid, ts, angles)
    scale = np.sqrt(1.0 + ts**2)
    radial = np.array([1.0, -1.0])[None, :, None] * (ts / scale)[:, None, None]
    d = (dxi - vals * radial) / (scale**2)[:, None, None]
    return d[:, :, 0] - d[:, :, 1]


def t33_oracle(f, n_t=12, n_xi=4):
    """Sampled T33: x over the grid nodes, xi at the n_xi angles pi k / n_xi
    in the (e_theta, e_phi) frame of x (the tested expression is even in
    xi), t over a logarithmic grid in [1e-3, 1e3].  Returns (holds, worst
    sampled value); holds when worst <= 1e-8 max|f|."""
    ts = np.geomspace(1e-3, 1e3, n_t)
    angles = np.pi * np.arange(n_xi) / n_xi
    worst = max(float(np.max(t33_differences(f, ts, angles[k : k + 1]))) for k in range(n_xi))
    return bool(worst <= 1e-8 * float(np.max(np.abs(f.values)))), worst
