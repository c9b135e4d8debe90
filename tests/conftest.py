import sys

import numpy as np
import pytest

from christoffel import body, harmonics, sphere


def clear_program_caches():
    """Empty every functools cache of the package, as a fresh process has
    them."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("christoffel."):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == name:
                    obj.cache_clear()


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
            a, b = coeffs.get(l, m), coeffs.get(l, -m)
            c[l * l + l + m] = a * np.cos(m * angle) - b * np.sin(m * angle)
            c[l * l + l - m] = a * np.sin(m * angle) + b * np.cos(m * angle)
    return harmonics.HarmonicCoeffs(L_max=coeffs.L_max, c=c)


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
    P = harmonics._grid_legendre(L, L_max, 0)[0]
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
    :func:`harmonics._theta_profiles` evaluates, at colatitudes ``theta``: a
    list of ``nderiv`` pairs (A, B), each (n_pts, L_max + 1).

    Each profile is a series sum_k a_k cos k theta + b_k sin k theta, from
    one real FFT of its values at the L_max + 2 colatitudes pi j / (L_max +
    1) mirrored onto the circle, as in the program; a derivative maps the
    coefficients (a_k, b_k) to (k b_k, -k a_k).
    """
    L_max, n = coeffs.L_max, coeffs.L_max + 1
    A, B = harmonics._synth_theta_stacks(harmonics._profile_blocks(L_max),
                                         *harmonics._coeff_stacks(coeffs.c, L_max), L_max)
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
    :func:`harmonics.values_and_gradient_at` at every rotated point.
    """
    pts, theta, phi = harmonics._points_angles(points)
    dirs = np.asarray(dirs, dtype=float)
    st = np.sin(theta)
    e_th, e_ph = frame_vectors(theta, phi)
    alpha = np.sum(dirs * e_th, axis=1)[:, None]
    beta = (np.sum(dirs * e_ph, axis=1) / np.maximum(st, SIN_GUARD))[:, None]
    A, B = harmonics._theta_profiles(coeffs, theta)
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
        out[0, p], g = harmonics.values_and_gradient_at(
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
