import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from christoffel import body, harmonics, sphere
from christoffel.errors import (
    BandLimitExceeded,
    InvalidParameter,
    OrthogonalityViolation,
)

from conftest import (
    clear_program_caches,
    constant_field,
    ellipsoid_ambient_hessian,
    frame_vectors,
    galerkin_matrix,
    harmonic_field,
    hessian_at,
    orbit_values_and_slopes,
    random_positive_field,
    rotate_about_z,
    rotate_forms,
    sampled_field,
    theta_profile_derivatives,
)


def random_coeffs(L_max, seed, decay=0.3):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((L_max + 1) ** 2)
    for l in range(L_max + 1):
        c[l * l : (l + 1) * (l + 1)] *= np.exp(-decay * l)
    return harmonics.HarmonicCoeffs(L_max=L_max, c=c)


def basis_matrix(grid, L_max):
    """B[node, k] = Y_k(node), one synthesis per unit coefficient vector."""
    K = (L_max + 1) ** 2
    return np.stack([
        harmonics.synthesize(harmonics.HarmonicCoeffs(L_max=L_max, c=e), grid).values
        for e in np.eye(K)
    ], axis=1)


# ----------------------------------------------------------------------
# Reference transforms: every table built afresh on each call, in the same
# floating-point expressions as the cached transform plan of ``harmonics``,
# which must reproduce them bit for bit
# ----------------------------------------------------------------------

def ref_legendre_packed(t, L_max, nderiv=0):
    m_arr, l_arr, offsets, prev, _, _ = (np.array(a) for a in harmonics._pair_index(L_max))
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
    inv_s = np.where(s > 0, 1.0 / np.maximum(s, 1e-300), 0.0)
    Pprev = np.empty_like(P)
    valid = prev >= 0
    Pprev[valid] = P[prev[valid]]
    Pprev[~valid] = 0.0
    c_lm = np.sqrt((2.0 * l_arr + 1.0) * (l_arr * l_arr - m_arr * m_arr)
                   / np.maximum(2.0 * l_arr - 1.0, 1.0))
    D1 = (l_arr[:, None] * t[None, :] * P - c_lm[:, None] * Pprev) * inv_s[None, :]
    if nderiv == 1:
        return (P, D1)
    cot = t * inv_s
    D2 = (-cot[None, :] * D1
          - ((l_arr * (l_arr + 1.0))[:, None]
             - (m_arr * m_arr)[:, None] * (inv_s * inv_s)[None, :]) * P)
    return (P, D1, D2)


def ref_legendre_blocks(t, L_max, nderiv=0):
    packed = ref_legendre_packed(t, L_max, nderiv)
    offsets = harmonics._pair_index(L_max)[2]
    return [tuple(arr[offsets[m] : offsets[m + 1], :].T for arr in packed)
            for m in range(L_max + 1)]


def ref_azimuth_tables(phis, L_max):
    m = np.arange(L_max + 1)[:, None]
    arg = m * phis[None, :]
    scale = np.where(m > 0, np.sqrt(2.0), 1.0)
    return scale * np.cos(arg), scale * np.sin(arg)


def ref_coeff_stacks(coeffs):
    L = coeffs.L_max
    cos_c, sin_c = [], []
    for m in range(L + 1):
        ls = np.arange(m, L + 1)
        cos_c.append(coeffs.c[ls * ls + ls + m])
        sin_c.append(coeffs.c[ls * ls + ls - m] if m > 0 else None)
    return cos_c, sin_c


def ref_theta_stacks(blocks, cos_c, sin_c, L_max, deriv=0):
    n_pts = blocks[0][0].shape[0]
    A = np.zeros((n_pts, L_max + 1))
    B = np.zeros((n_pts, L_max + 1))
    for m in range(L_max + 1):
        block = blocks[m][deriv]
        A[:, m] = block @ cos_c[m]
        if sin_c[m] is not None:
            B[:, m] = block @ sin_c[m]
    return A, B


def ref_analyze(grid, values, L_max):
    vals = values.reshape(grid.L, grid.azimuth_count)
    cos_t, sin_t = ref_azimuth_tables(grid.phis, L_max)
    w_phi = np.pi / grid.L
    Fc = vals @ cos_t.T * w_phi
    Fs = vals @ sin_t.T * w_phi
    blocks = ref_legendre_blocks(grid.polar_nodes, L_max)
    wt = grid.polar_weights
    c = np.zeros((L_max + 1) ** 2)
    for m in range(L_max + 1):
        ls = np.arange(m, L_max + 1)
        c[ls * ls + ls + m] = blocks[m][0].T @ (wt * Fc[:, m])
        if m > 0:
            c[ls * ls + ls - m] = blocks[m][0].T @ (wt * Fs[:, m])
    return c


def ref_grid_eval(coeffs, grid, deriv):
    L_max = coeffs.L_max
    blocks = ref_legendre_blocks(grid.polar_nodes, L_max, 2)
    cos_c, sin_c = ref_coeff_stacks(coeffs)
    cos_t, sin_t = ref_azimuth_tables(grid.phis, L_max)
    m_row = np.arange(L_max + 1)[:, None]
    stacks = [ref_theta_stacks(blocks, cos_c, sin_c, L_max, d) for d in range(3)]
    out = []
    for d in deriv:
        if d in (0, 1, 2):
            A, B = stacks[d]
            out.append(A @ cos_t + B @ sin_t)
        elif d == "phi":
            A, B = stacks[0]
            out.append(B @ (m_row * cos_t) - A @ (m_row * sin_t))
        elif d == "phiphi":
            A, B = stacks[0]
            out.append(-(A @ (m_row**2 * cos_t) + B @ (m_row**2 * sin_t)))
        else:
            A, B = stacks[1]
            out.append(B @ (m_row * cos_t) - A @ (m_row * sin_t))
    return out


def ref_grid_gradient(field):
    grid = field.grid
    dth, dph = (d.ravel() for d in ref_grid_eval(field.coeffs, grid, (1, "phi")))
    theta = np.repeat(grid.thetas, grid.azimuth_count)
    phi = np.tile(grid.phis, grid.L)
    e_th, e_ph = frame_vectors(theta, phi)
    return e_th * dth[:, None] + e_ph * (dph / np.maximum(np.sin(theta), 1e-8))[:, None]


def ref_frame_hessian(theta, derivs):
    """Covariant Hessian in the (e_theta, e_phi) frame from (d_theta,
    d_phi, d_theta^2, d_theta d_phi, d_phi^2)."""
    dth, dph, dthth, dthph, dphph = derivs
    s, c = np.sin(theta), np.cos(theta)
    H = np.empty((len(theta), 2, 2))
    H[:, 0, 0] = dthth
    H[:, 0, 1] = H[:, 1, 0] = (dthph - (c / s) * dph) / s
    H[:, 1, 1] = dphph / (s * s) + (c / s) * dth
    return H


def ref_grid_hessian(field):
    grid = field.grid
    derivs = [d.ravel() for d in
              ref_grid_eval(field.coeffs, grid, (1, "phi", 2, "thetaphi", "phiphi"))]
    return ref_frame_hessian(np.repeat(grid.thetas, grid.azimuth_count), derivs)


def ref_circle_derivatives(coeffs, x, d):
    """First and second derivatives of the field along the great circle
    cos(t) x + sin(t) d at t = 0, exact by one FFT of its samples (a
    trigonometric polynomial of degree <= L_max)."""
    K = 2 * coeffs.L_max + 2
    ts = 2.0 * np.pi * np.arange(K) / K
    F = np.fft.rfft(harmonics.synthesize_at(coeffs, np.outer(np.cos(ts), x) + np.outer(np.sin(ts), d)))
    k = np.arange(len(F))
    a = 2.0 * np.real(F) / K
    a[0] *= 0.5
    a[-1] *= 0.5  # K is even: the Nyquist term
    return float(np.sum(k * (-2.0 * np.imag(F) / K))), float(-np.sum(k * k * a))


def ref_point_derivatives(coeffs, points):
    """Values, tangential gradients (N, 3) and covariant Hessians (N, 2, 2)
    in the bases of :func:`sphere.tangent_bases`, from theta- and
    phi-derivatives in the (e_theta, e_phi) frame; within sin(theta) <= 1e-8
    (gradient) resp. 1e-4 (Hessian) of a pole, where that frame degrades,
    from exact great-circle differentiation.  Independent of the extension
    channels."""
    pts = np.asarray(points, dtype=float)
    theta = np.arctan2(np.hypot(pts[:, 0], pts[:, 1]), pts[:, 2])
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    A, B = harmonics._theta_profiles(coeffs, theta)
    (dA, dB), (d2A, d2B) = theta_profile_derivatives(coeffs, theta, 2)
    m = np.arange(coeffs.L_max + 1)[None, :]
    z = np.where(m > 0, np.sqrt(2.0), 1.0) * np.exp(1j * m * phi[:, None])
    c, s = z.real, z.imag
    vals = np.sum(A * c + B * s, axis=1)
    derivs = (np.sum(dA * c + dB * s, axis=1), np.sum(m * (B * c - A * s), axis=1),
              np.sum(d2A * c + d2B * s, axis=1), np.sum(m * (dB * c - dA * s), axis=1),
              -np.sum(m * m * (A * c + B * s), axis=1))
    safe_theta = np.clip(theta, 1e-8, np.pi - 1e-8)
    e_th, e_ph = frame_vectors(safe_theta, phi)
    grad = e_th * derivs[0][:, None] + e_ph * (derivs[1] / np.sin(safe_theta))[:, None]
    bases = sphere.tangent_bases(pts)
    H = rotate_forms(ref_frame_hessian(safe_theta, derivs), (e_th, e_ph), bases)
    st = np.sin(theta)
    for i in np.nonzero(st <= 1e-4)[0]:
        e1, e2 = bases[0][i], bases[1][i]
        (g1, h11), (g2, h22) = (ref_circle_derivatives(coeffs, pts[i], e) for e in (e1, e2))
        hdd = ref_circle_derivatives(coeffs, pts[i], (e1 + e2) / np.sqrt(2.0))[1]
        H[i] = [[h11, hdd - 0.5 * (h11 + h22)], [hdd - 0.5 * (h11 + h22), h22]]
        if st[i] <= 1e-8:
            grad[i] = g1 * e1 + g2 * e2
    return vals, grad, H


def ref_synthesize_at(coeffs, points):
    pts = np.asarray(points, dtype=float)
    theta = np.arctan2(np.hypot(pts[:, 0], pts[:, 1]), pts[:, 2])
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    L_max = coeffs.L_max
    n = L_max + 1
    nodes = np.pi * np.arange(n + 1) / n
    A, B = ref_theta_stacks(ref_legendre_blocks(np.cos(nodes), L_max),
                            *ref_coeff_stacks(coeffs), L_max)
    prof = np.concatenate([A, B], axis=1)
    circle = np.concatenate([prof, np.tile((-1.0) ** np.arange(n), 2) * prof[-2:0:-1]])
    F = np.fft.rfft(circle, axis=0)[:n] / n
    F[0] *= 0.5
    W = np.stack([F.real, -F.imag], axis=1).reshape(2 * n, 2 * n)
    k = np.arange(n)
    P = np.exp(1j * np.multiply.outer(theta, k)).view(float) @ W
    A, B = P[:, :n], P[:, n:]
    m = np.arange(L_max + 1)[None, :]
    z = np.where(m > 0, np.sqrt(2.0), 1.0) * np.exp(1j * m * phi[:, None])
    return np.sum(A * z.real + B * z.imag, axis=1)


class TestTransforms:
    def test_constant_coefficient(self, grid16):
        c = harmonics.analyze(grid16, np.ones(grid16.node_count), 8)
        assert abs(c.c[c.index(0, 0)] - np.sqrt(4 * np.pi)) < 1e-12
        assert np.max(np.abs(c.c[1:])) < 1e-10

    def test_single_mode_orthonormality(self, grid16):
        f = harmonic_field(grid16, 0.0, {(2, 1): 1.0}, L_max=8)
        c = harmonics.analyze(grid16, f.values, 8)
        assert abs(c.c[c.index(2, 1)] - 1.0) < 1e-12
        rest = c.c.copy()
        rest[harmonics.HarmonicCoeffs.index(2, 1)] = 0.0
        assert np.max(np.abs(rest)) < 1e-10

    def test_round_trip_random(self, grid16):
        coeffs = random_coeffs(12, seed=1)
        f = harmonics.synthesize(coeffs, grid16)
        back = harmonics.analyze(grid16, f.values, 12)
        assert np.max(np.abs(back.c - coeffs.c)) < 1e-9

    def test_parseval(self, grid16):
        coeffs = random_coeffs(10, seed=2)
        f = harmonics.synthesize(coeffs, grid16)
        assert abs(np.sum(coeffs.c**2) - grid16.integrate(f.values**2)) < 1e-8

    def test_band_limit_gate(self, grid16):
        with pytest.raises(BandLimitExceeded):
            harmonics.analyze(grid16, np.ones(grid16.node_count), 16)

    def test_synthesize_zero(self, grid16):
        c = harmonics.HarmonicCoeffs(L_max=4, c=np.zeros(25))
        assert np.all(harmonics.synthesize(c, grid16).values == 0.0)

    def test_synthesize_degree1(self, grid16):
        # Y_1^0 is sqrt(3/4pi) * z3
        f = harmonic_field(grid16, 0.0, {(1, 0): 1.0}, L_max=4)
        expected = np.sqrt(3 / (4 * np.pi)) * grid16.nodes[:, 2]
        assert np.max(np.abs(f.values - expected)) < 1e-13

    def test_scipy_cross_check(self, grid16):
        # our real basis against scipy's complex harmonics (Condon-Shortley)
        from scipy.special import sph_harm_y

        theta = np.arccos(grid16.polar_nodes[3])
        phi = grid16.phis[5]
        pt = np.array(
            [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
        )
        for l, m in [(0, 0), (1, 0), (2, 1), (3, 2), (5, 4)]:
            c = np.zeros(64)
            c[harmonics.HarmonicCoeffs.index(l, m)] = 1.0
            ours = harmonics.synthesize_at(
                harmonics.HarmonicCoeffs(L_max=7, c=c), pt[None, :]
            )[0]
            ylm = sph_harm_y(l, m, theta, phi)
            ref = ylm.real * (-1) ** m * (np.sqrt(2.0) if m > 0 else 1.0)
            assert abs(ours - ref) < 1e-12, (l, m)

    # (12, 11) reaches orders m + m' = 22 near 2L = 24; odd L = 13; and
    # L_max >= L, where orders m + m' >= 2L alias on the rings
    @pytest.mark.parametrize("L, L_max", [(12, 11), (13, 8), (8, 10)])
    def test_galerkin_matrix_matches_basis_matrix(self, L, L_max):
        grid = sphere.make_grid(L)
        g = np.random.default_rng(L).standard_normal(grid.node_count)
        assert g.min() < 0 < g.max()
        B = basis_matrix(grid, L_max)
        ref = B.T @ ((grid.weights * g)[:, None] * B)
        M = galerkin_matrix(g, grid, L_max)
        assert np.max(np.abs(M - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.array_equal(M, M.T)


class TestDerivatives:
    def test_gradient_constant(self, grid16):
        f = constant_field(grid16, 5.0, L_max=8)
        g = harmonics.values_and_gradient_at(f.coeffs, grid16.nodes[7:8])[1][0]
        assert np.linalg.norm(g) < 1e-12

    def test_gradient_linear_field(self):
        # field x3 at x = (1,0,0): tangential part of e3 is e3 itself
        c = np.zeros(4)
        c[harmonics.HarmonicCoeffs.index(1, 0)] = np.sqrt(4 * np.pi / 3)
        coeffs = harmonics.HarmonicCoeffs(L_max=1, c=c)
        g = harmonics.values_and_gradient_at(coeffs, np.array([[1.0, 0.0, 0.0]]))[1][0]
        assert np.max(np.abs(g - np.array([0.0, 0.0, 1.0]))) < 1e-12

    def test_gradient_finite_difference(self, grid16):
        coeffs = random_coeffs(10, seed=4)
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((10, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        grads = harmonics.values_and_gradient_at(coeffs, pts)[1]
        h = 1e-5
        for i, x in enumerate(pts):
            e1, e2 = (e[0] for e in sphere.tangent_bases(x[None]))
            for d in (e1, e2):
                plus = np.cos(h) * x + np.sin(h) * d
                minus = np.cos(h) * x - np.sin(h) * d
                fd = (
                    harmonics.synthesize_at(coeffs, plus[None, :])[0]
                    - harmonics.synthesize_at(coeffs, minus[None, :])[0]
                ) / (2 * h)
                assert abs(grads[i] @ d - fd) < 1e-6

    def test_hessian_constant(self, grid16):
        f = constant_field(grid16, 2.5, L_max=8)
        H = hessian_at(f.coeffs, grid16.nodes[3:4])[0]
        assert np.max(np.abs(H)) < 1e-12

    def test_hessian_trace_is_eigenvalue(self, grid16):
        # trace Hess(Y_l^m) = -l(l+1) Y_l^m
        for l, m in [(2, 0), (3, -2), (4, 1)]:
            c = np.zeros(36)
            c[harmonics.HarmonicCoeffs.index(l, m)] = 1.0
            coeffs = harmonics.HarmonicCoeffs(L_max=5, c=c)
            for idx in (40, 222):
                x = grid16.nodes[idx]
                H = hessian_at(coeffs, x[None, :])[0]
                y = harmonics.synthesize_at(coeffs, x[None, :])[0]
                assert abs(H[0, 0] + H[1, 1] + l * (l + 1) * y) < 1e-8

    def test_hessian_finite_difference(self, grid16):
        coeffs = random_coeffs(10, seed=6)
        rng = np.random.default_rng(9)
        pts = rng.standard_normal((6, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        H = hessian_at(coeffs, pts)
        h = 1e-4
        for i, x in enumerate(pts):
            e1, e2 = (e[0] for e in sphere.tangent_bases(x[None]))
            f0 = harmonics.synthesize_at(coeffs, x[None, :])[0]
            for q, d in [((1.0, 0.0), e1), ((0.0, 1.0), e2),
                         ((1 / np.sqrt(2), 1 / np.sqrt(2)), (e1 + e2) / np.sqrt(2))]:
                plus = np.cos(h) * x + np.sin(h) * d
                minus = np.cos(h) * x - np.sin(h) * d
                fd2 = (
                    harmonics.synthesize_at(coeffs, plus[None, :])[0]
                    - 2 * f0
                    + harmonics.synthesize_at(coeffs, minus[None, :])[0]
                ) / h**2
                qv = np.array(q)
                assert abs(qv @ H[i] @ qv - fd2) < 1e-5

    def test_pole_evaluation(self):
        # the extension channels need no pole test
        coeffs = random_coeffs(8, seed=10)
        pole = np.array([[0.0, 0.0, 1.0]])
        g = harmonics.values_and_gradient_at(coeffs, pole)[1][0]
        H = hessian_at(coeffs, pole)[0]
        e1, e2 = (e[0] for e in sphere.tangent_bases(pole))
        h = 1e-5
        for k, d in enumerate((e1, e2)):
            plus = np.cos(h) * pole[0] + np.sin(h) * d
            minus = np.cos(h) * pole[0] - np.sin(h) * d
            vp = harmonics.synthesize_at(coeffs, plus[None, :])[0]
            vm = harmonics.synthesize_at(coeffs, minus[None, :])[0]
            v0 = harmonics.synthesize_at(coeffs, pole)[0]
            assert abs((vp - vm) / (2 * h) - g @ d) < 1e-6
            assert abs((vp - 2 * v0 + vm) / h**2 - H[k, k]) < 1e-4

    @pytest.mark.parametrize("L_max, n_phi", [(8, 20), (8, 12), (8, 6)])
    def test_orbit_matches_rotated_points(self, L_max, n_phi):
        # the T33 oracle's orbits: n_phi = 6 folds orders m >= 6 onto m - 6;
        # the pole point takes the exact path
        coeffs = random_coeffs(L_max, seed=13)
        rng = np.random.default_rng(14)
        pts = rng.standard_normal((5, 3))
        pts[0] = [0.0, 0.0, 1.0]
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        e1, e2 = sphere.tangent_bases(pts)
        angles = rng.uniform(0.0, 2 * np.pi, len(pts))[:, None]
        dirs = np.cos(angles) * e1 + np.sin(angles) * e2
        vals, slopes = orbit_values_and_slopes(coeffs, pts, dirs, n_phi)
        for j in range(n_phi):
            a = 2 * np.pi * j / n_phi
            R = np.array([[np.cos(a), -np.sin(a), 0], [np.sin(a), np.cos(a), 0], [0, 0, 1.0]])
            v, g = harmonics.values_and_gradient_at(coeffs, pts @ R.T)
            assert np.max(np.abs(vals[:, j] - v)) < 1e-12
            assert np.max(np.abs(slopes[:, j] - np.sum(g * (dirs @ R.T), axis=1))) < 1e-11

    def test_grid_hessian_trace_matches_laplacian(self, grid16):
        coeffs = random_coeffs(10, seed=12)
        f = harmonics.synthesize(coeffs, grid16)
        H = harmonics.grid_hessian(f)
        lap2 = harmonics.synthesize(coeffs.apply_operator(), grid16).values
        assert np.max(np.abs(H[:, 0, 0] + H[:, 1, 1] + 2.0 * f.values - lap2)) < 1e-9

    def test_field_needs_coeffs(self, grid16):
        # every field is an expansion with its values: none without coefficients
        ones = np.ones(grid16.node_count)
        with pytest.raises(TypeError):
            harmonics.SphericalField(grid=grid16, values=ones)
        with pytest.raises(TypeError):
            harmonics.SphericalField(grid=grid16, values=ones, coeffs=None)


def solved_pair(L, L_max, seed):
    """(f, u) with (Laplacian + 2) u = f, f random up to degree L_max on grid L."""
    c = random_coeffs(L_max, seed).c.copy()
    c[0] = 10.0
    c[1:4] = 0.0
    f = harmonics.synthesize(harmonics.HarmonicCoeffs(L_max=L_max, c=c), sphere.make_grid(L))
    return f, harmonics.solve_christoffel(f).u


def probe_points(n, seed):
    """n random unit vectors, both poles and points 1e-9 from each pole."""
    pts = np.random.default_rng(seed).standard_normal((n, 3))
    near = [[np.sin(1e-9) * np.cos(a), np.sin(1e-9) * np.sin(a), z * np.cos(1e-9)]
            for a in (0.0, 1.0, 4.0) for z in (1.0, -1.0)]
    pts = np.vstack([pts / np.linalg.norm(pts, axis=1, keepdims=True),
                     [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], near])
    return pts


class TestExtensionChannels:
    @pytest.mark.parametrize("L, L_max", [(16, 15), (17, 16), (48, 32), (96, 64)])
    def test_matches_frame_oracle(self, L, L_max):
        _, u = solved_pair(L, L_max, seed=L)
        pts = probe_points(2000, seed=L)
        scale = np.max(np.abs(harmonics.extension_hessian_at(u.coeffs, pts)))
        vals, grad, H = ref_point_derivatives(u.coeffs, pts)
        v, g = harmonics.values_and_gradient_at(u.coeffs, pts)
        assert np.array_equal(v, vals)
        assert np.max(np.abs(g - grad)) <= 1e-11 * scale
        assert np.max(np.abs(hessian_at(u.coeffs, pts) - H)) <= 1e-11 * scale

    @pytest.mark.parametrize("L, L_max", [(16, 15), (48, 32)])
    def test_trace_is_f_and_x_is_null(self, L, L_max):
        # tr D^2 U = Laplacian u + 2 u = f, and D^2 U x = 0 by 1-homogeneity
        f, u = solved_pair(L, L_max, seed=L + 1)
        pts = probe_points(500, seed=L + 1)
        D2U = harmonics.extension_hessian_at(u.coeffs, pts)
        assert np.array_equal(D2U, np.swapaxes(D2U, 1, 2))
        trace_err = np.trace(D2U, axis1=1, axis2=2) - harmonics.synthesize_at(f.coeffs, pts)
        assert np.max(np.abs(trace_err)) <= 1e-11 * np.max(np.abs(f.values))
        null = np.einsum("nij,nj->ni", D2U, pts)
        assert np.max(np.abs(null)) <= 1e-13 * np.max(np.abs(D2U))

    @pytest.mark.parametrize("L, L_max", [(24, 16), (48, 32)])
    def test_ellipsoid_within_truncation_gap(self, L, L_max):
        # the grid Hessian of the band-limited u at the nodes and D^2 U off
        # the grid both stay within a fixed bound of the analytic Hessian:
        # twice the truncation gap at the nodes (4.69e-6 and 4.35e-10)
        bound = {16: 9.4e-6, 32: 8.7e-10}[L_max]
        ell = body.Ellipsoid(1.0, 1.2, 1.5)
        u = body.support_function(ell, sphere.make_grid(L), L_max=L_max)
        nodes = u.grid.nodes
        E = np.stack([u.grid.frame.e_th, u.grid.frame.e_ph], axis=2)
        at_nodes = np.einsum("nik,nkl,njl->nij", E,
                             harmonics.grid_hessian(u) + u.values[:, None, None] * np.eye(2), E)
        gap = np.max(np.abs(at_nodes - [ellipsoid_ambient_hessian(ell, x) for x in nodes]))
        pts = probe_points(500, seed=L)
        analytic = np.stack([ellipsoid_ambient_hessian(ell, x) for x in pts])
        assert gap <= bound
        assert np.max(np.abs(harmonics.extension_hessian_at(u.coeffs, pts) - analytic)) <= bound

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 23))
    def test_rotation_about_z(self, seed, steps):
        # g(x) = f(R^-1 x) has D^2 G(R x) = R D^2 F(x) R^T
        f = random_positive_field(sphere.make_grid(12), np.random.default_rng(seed), L_max=8)
        angle = steps * 2 * np.pi / 24
        R = np.array([[np.cos(angle), -np.sin(angle), 0.0],
                      [np.sin(angle), np.cos(angle), 0.0], [0.0, 0.0, 1.0]])
        pts = probe_points(50, seed)
        D2F = harmonics.extension_hessian_at(f.coeffs, pts)
        D2G = harmonics.extension_hessian_at(rotate_about_z(f.coeffs, angle), pts @ R.T)
        assert np.max(np.abs(D2G - R @ D2F @ R.T)) <= 1e-12 * np.max(np.abs(D2F))

    def test_built_once_per_coefficient_set(self, monkeypatch):
        built = []
        real = harmonics._extension_channels
        monkeypatch.setattr(harmonics, "_extension_channels",
                            lambda coeffs: built.append(coeffs) or real(coeffs))
        coeffs = random_coeffs(6, seed=30)
        pts = probe_points(5, seed=30)
        hessian_at(coeffs, pts)
        harmonics.values_and_gradient_at(coeffs, pts)
        harmonics.extension_hessian_at(coeffs, pts)
        assert built == [coeffs]
        harmonics.synthesize_at(random_coeffs(6, seed=31), pts)
        assert built == [coeffs]

    def test_channel_field_freed_without_collector(self):
        # the kept channel field holds no reference back to its
        # coefficients, so they are freed when the last user drops them,
        # not at the next full garbage collection
        coeffs = random_coeffs(6, seed=33)
        coeffs.channel_field.gradient
        assert coeffs.channel_field.coeffs is not coeffs
        assert np.shares_memory(coeffs.channel_field.coeffs.c, coeffs.c)
        gc.disable()
        try:
            ref = weakref.ref(coeffs)
            del coeffs
            assert ref() is None
        finally:
            gc.enable()

    def test_low_band(self):
        # L_max = 0: a constant c has D^2 U = c (I - x x^T)
        coeffs = harmonics.HarmonicCoeffs(L_max=0, c=np.array([2.0 * np.sqrt(4 * np.pi)]))
        pts = probe_points(20, seed=32)
        want = 2.0 * (np.eye(3) - pts[:, :, None] * pts[:, None, :])
        assert np.max(np.abs(harmonics.extension_hessian_at(coeffs, pts) - want)) <= 1e-14


class TestThetaProfiles:
    @pytest.mark.parametrize("L_max", [0, 1, 2, 15, 32, 64])
    def test_matches_legendre_recursion(self, L_max):
        coeffs = random_coeffs(L_max, seed=20 + L_max)
        theta = np.random.default_rng(21).uniform(0.05, np.pi - 0.05, 200)
        got = [harmonics._theta_profiles(coeffs, theta)]
        got += theta_profile_derivatives(coeffs, theta, 2)
        blocks = ref_legendre_blocks(np.cos(theta), L_max, 2)
        stacks = ref_coeff_stacks(coeffs)
        for d, bound in enumerate((1e-13, 1e-12, 1e-11)):
            want = ref_theta_stacks(blocks, *stacks, L_max, d)
            scale = max(np.max(np.abs(w)) for w in want)
            for g, w in zip(got[d], want):
                assert g.shape == w.shape
                assert np.max(np.abs(g - w)) <= bound * scale

    @pytest.mark.parametrize("L_max", [0, 5, 32])
    def test_channels_share_one_profile_pass(self, L_max, monkeypatch):
        # a stack of channels takes one profile FFT and gives what
        # synthesize_at gives channel by channel
        channels = [random_coeffs(L_max, seed=40 + k) for k in range(6)]
        pts = probe_points(300, seed=41)
        want = np.stack([harmonics.synthesize_at(c, pts) for c in channels], axis=-1)
        ffts = []
        rfft = np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft", lambda *a, **kw: ffts.append(1) or rfft(*a, **kw))
        got = harmonics.synthesize_at(channels, pts)
        assert len(ffts) == 1
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("L_max", [0, 5, 32])
    def test_hessian_takes_one_profile_pass(self, L_max, monkeypatch):
        # the values join the D^2 G channels at their band: one set of theta
        # profiles per call
        coeffs = random_coeffs(L_max, seed=42 + L_max)
        pts = probe_points(50, seed=43)
        coeffs.extension_channels  # built before counting
        calls = []
        profiles = harmonics._theta_profiles
        monkeypatch.setattr(harmonics, "_theta_profiles",
                            lambda *a, **kw: calls.append(1) or profiles(*a, **kw))
        hessian_at(coeffs, pts)
        assert len(calls) == 1

    @pytest.mark.parametrize("theta", [1e-4, 1e-6, 1e-7])
    @pytest.mark.parametrize("l", [1, 2])
    def test_near_pole_values(self, l, theta):
        # Y_1^1 = sqrt(3 / 4 pi) x and Y_2^1 = sqrt(15 / 4 pi) x z, at both
        # poles; theta = arccos(z) alone would be off by about 1e-10 here
        exact = {1: lambda p: np.sqrt(3 / (4 * np.pi)) * p[:, 0],
                 2: lambda p: np.sqrt(15 / (4 * np.pi)) * p[:, 0] * p[:, 2]}[l]
        c = np.zeros(81)
        c[harmonics.HarmonicCoeffs.index(l, 1)] = 1.0
        coeffs = harmonics.HarmonicCoeffs(L_max=8, c=c)
        phi = 0.3 + 2 * np.pi * np.arange(7) / 7
        for z in (np.cos(theta), -np.cos(theta)):
            pts = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                            np.full_like(phi, z)], axis=1)
            assert np.max(np.abs(harmonics.synthesize_at(coeffs, pts) - exact(pts))) <= 1e-15


class TestOrthogonality:
    def test_constant_defect_zero(self, grid16):
        f = constant_field(grid16, 2.0, L_max=8)
        assert np.max(np.abs(harmonics.orthogonality_defect(f))) < 1e-10

    def test_linear_component_defect(self, grid16):
        # f = 2 + x3: third component of the defect is int x3^2 = 4 pi / 3
        vals = 2.0 + grid16.nodes[:, 2]
        f = sampled_field(grid16, vals, 8)
        d = harmonics.orthogonality_defect(f)
        assert abs(d[2] - 4 * np.pi / 3) < 1e-8
        assert abs(d[0]) < 1e-10 and abs(d[1]) < 1e-10

    def test_even_field_defect_zero(self, grid16):
        vals = 1.0 + grid16.nodes[:, 0] ** 2
        f = sampled_field(grid16, vals, 8)
        assert np.max(np.abs(harmonics.orthogonality_defect(f))) < 1e-10

    def test_defect_read_from_coefficients(self, grid16):
        # int x f = (c_11, c_1-1, c_10) / sqrt(3/4pi) with no quadrature
        # rounding, and exactly 0 once the degree-1 part is projected away
        c = np.zeros(81)
        c[[0, 1, 2, 3, 6]] = (3.0, 0.1, -0.2, 0.3, 0.4)
        f = harmonics.synthesize(harmonics.HarmonicCoeffs(L_max=8, c=c), grid16)
        want = np.array([0.3, 0.1, -0.2]) / np.sqrt(3 / (4 * np.pi))
        assert np.array_equal(harmonics.orthogonality_defect(f), want)
        g = harmonics.project_out_linear(f)
        assert np.array_equal(harmonics.orthogonality_defect(g), np.zeros(3))
        ref = harmonics.synthesize(harmonics.HarmonicCoeffs(L_max=8, c=g.coeffs.c), grid16)
        assert np.max(np.abs(g.values - ref.values)) < 1e-14

    def test_projection_removes_linear(self, grid16):
        vals = 2.0 + grid16.nodes[:, 2]
        f = sampled_field(grid16, vals, 8)
        g = harmonics.project_out_linear(f)
        assert np.max(np.abs(g.values - 2.0)) < 1e-12
        assert np.max(np.abs(harmonics.orthogonality_defect(g))) < 1e-10
        # the coefficients lose their degree-1 entries and keep the rest
        assert np.all(g.coeffs.c[1:4] == 0.0)
        assert np.array_equal(np.delete(g.coeffs.c, [1, 2, 3]), np.delete(f.coeffs.c, [1, 2, 3]))

    def test_projection_identity_when_orthogonal(self, grid16):
        f = harmonic_field(grid16, 2.0, {(2, 0): 0.4}, L_max=8)
        g = harmonics.project_out_linear(f)
        assert np.max(np.abs(g.values - f.values)) < 1e-12

    def test_projection_decomposition_exact(self, grid16):
        rng = np.random.default_rng(13)
        vals = 2.0 + 0.3 * rng.standard_normal(grid16.node_count)
        f = sampled_field(grid16, vals, 8)
        g = harmonics.project_out_linear(f)
        removed = f.values - g.values
        assert np.max(np.abs(g.values + removed - f.values)) < 1e-14


class TestOperator:
    def test_diagonal(self):
        D = harmonics.operator_diagonal(3)
        assert D.shape == (16,)
        for l in range(4):
            assert np.all(D[l * l : (l + 1) ** 2] == 2.0 - l * (l + 1))

    def test_invert_apply_round_trip(self):
        # degree 1 spans the kernel: apply sends it to 0, invert leaves it 0
        coeffs = random_coeffs(10, seed=15)
        applied = coeffs.apply_operator()
        assert np.all(applied.c[1:4] == 0.0)
        back = applied.invert_operator()
        assert np.all(back.c[1:4] == 0.0)
        off = np.r_[0, 4:len(coeffs.c)]
        assert np.max(np.abs(back.c[off] - coeffs.c[off])) <= 1e-15 * np.max(np.abs(coeffs.c))


class TestSolver:
    def test_unit_sphere(self, grid16):
        f = constant_field(grid16, 2.0, L_max=8)
        u = harmonics.solve_christoffel(f).u
        assert np.max(np.abs(u.values - 1.0)) < 1e-12

    def test_single_mode_division(self, grid16):
        # (Lap + 2) Y_2 = (2 - 6) Y_2 = -4 Y_2
        eps = 0.3
        f = harmonic_field(grid16, 2.0, {(2, 0): -4 * eps}, L_max=8)
        u = harmonics.solve_christoffel(f).u
        expected = harmonic_field(grid16, 1.0, {(2, 0): eps}, L_max=8)
        assert np.max(np.abs(u.values - expected.values)) < 1e-12

    def test_kernel_direction_rejected(self, grid16):
        f = sampled_field(grid16, grid16.nodes[:, 0].copy(), 8)
        with pytest.raises(OrthogonalityViolation) as exc:
            harmonics.solve_christoffel(f)
        assert np.max(np.abs(exc.value.defect)) > 1e-2

    @pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0, np.inf])
    def test_bad_tol_rejected(self, grid16, tol):
        # a NaN tol would disable the orthogonality check on this field
        f = harmonic_field(grid16, 2.0, {(1, 0): 0.1}, L_max=8)
        with pytest.raises(InvalidParameter):
            harmonics.solve_christoffel(f, rtol=tol)

    def test_project_flag_solves(self, grid16):
        f = sampled_field(grid16, 2.0 + 0.3 * grid16.nodes[:, 2], 8)
        u = harmonics.solve_christoffel(f, project=True).u
        assert np.max(np.abs(u.values - 1.0)) < 1e-10

    def test_residual_identity(self, grid16):
        coeffs = random_coeffs(10, seed=14)
        c = coeffs.c.copy()
        c[1:4] = 0.0
        f = harmonics.synthesize(harmonics.HarmonicCoeffs(L_max=10, c=c), grid16)
        u, residual = harmonics.solve_christoffel(f, rtol=1e-6)
        assert residual == harmonics.christoffel_residual(u.coeffs, u.grid, f.values) < 1e-9

    def test_linearity(self, grid16):
        fa = harmonic_field(grid16, 1.0, {(2, 1): 0.2}, L_max=8)
        fb = harmonic_field(grid16, 3.0, {(4, -2): 0.1}, L_max=8)
        a, b = 2.0, -0.5
        combo = harmonics.SphericalField(
            grid=grid16,
            values=a * fa.values + b * fb.values,
            coeffs=harmonics.HarmonicCoeffs(L_max=8, c=a * fa.coeffs.c + b * fb.coeffs.c),
        )
        ua = harmonics.solve_christoffel(fa).u
        ub = harmonics.solve_christoffel(fb).u
        uc = harmonics.solve_christoffel(combo).u
        assert np.max(np.abs(uc.values - (a * ua.values + b * ub.values))) < 1e-10

    def test_translation_normalization(self, grid16):
        # adding a small degree-1 part and projecting leaves the output unchanged
        f = harmonic_field(grid16, 2.0, {(2, 0): 0.5}, L_max=8)
        u0 = harmonics.solve_christoffel(f).u
        shifted = harmonic_field(grid16, 2.0, {(2, 0): 0.5, (1, 1): 1e-9}, L_max=8)
        u1 = harmonics.solve_christoffel(shifted, project=True).u
        assert np.max(np.abs(u1.values - u0.values)) < 1e-10
        assert harmonics.degree1_magnitude(u1.coeffs) == 0.0

    def test_bandlimit_reports_truncation(self, grid16):
        vals = np.exp(grid16.nodes[:, 2] * 3.0)
        g, err = harmonics.bandlimit(grid16, vals, 8)
        assert err > 0
        assert np.max(np.abs(g.values - vals)) <= err + 1e-12
        resynth = harmonics.synthesize(g.coeffs, grid16)
        assert np.max(np.abs(resynth.values - g.values)) < 1e-9


# (L, L_max): even and odd L, each with L_max = L - 1, about 2L/3 and small
PLAN_SIZES = [(16, 15), (16, 10), (16, 3), (17, 16), (17, 11), (17, 4), (48, 32)]


def assert_matches_reference(L, L_max, seed):
    """Every cached-plan transform at (L, L_max) equals the per-call
    reference bit for bit."""
    grid = sphere.make_grid(L)
    coeffs = random_coeffs(L_max, seed)
    f = harmonics.synthesize(coeffs, grid)
    assert np.array_equal(f.values, ref_grid_eval(coeffs, grid, (0,))[0].ravel())
    rng = np.random.default_rng(seed)
    for values in (f.values, rng.standard_normal(grid.node_count)):
        assert np.array_equal(harmonics.analyze(grid, values, L_max).c,
                              ref_analyze(grid, values, L_max))
    assert np.array_equal(harmonics.grid_gradient(f), ref_grid_gradient(f))
    assert np.array_equal(harmonics.grid_hessian(f), ref_grid_hessian(f))
    pts = rng.standard_normal((50, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    assert np.array_equal(harmonics.synthesize_at(coeffs, pts), ref_synthesize_at(coeffs, pts))


def plan_caches():
    return {name: obj for name, obj in vars(harmonics).items()
            if hasattr(obj, "cache_clear") and obj.__module__ == harmonics.__name__}


class TestTransformPlan:
    @pytest.mark.parametrize("L, L_max", PLAN_SIZES)
    def test_bitwise_reference(self, L, L_max):
        # from empty caches, then again from the entries the first pass built
        clear_program_caches()
        assert_matches_reference(L, L_max, seed=L + L_max)
        assert_matches_reference(L, L_max, seed=L + L_max + 1)

    def test_bitwise_reference_after_eviction(self):
        L, L_max = PLAN_SIZES[1]
        assert_matches_reference(L, L_max, seed=3)
        # more sizes than any plan cache holds, each a new key of every cache
        fillers = [(L_max + 1 + L_max % 3, L_max) for L_max in range(2, 22)]
        largest = max(cache.cache_info().maxsize for cache in plan_caches().values())
        assert len(fillers) > largest
        for filler_L, filler_Lmax in fillers:
            grid = sphere.make_grid(filler_L)
            coeffs = random_coeffs(filler_Lmax, seed=filler_L)
            harmonics.grid_hessian(harmonics.synthesize(coeffs, grid))
            harmonics.synthesize_at(coeffs, grid.nodes[:3])
        assert_matches_reference(L, L_max, seed=4)

    def test_cached_tables_read_only(self):
        calls = {
            "_pair_index": (8,), "_order_index": (8,), "_grid_legendre": (12, 8, 2),
            "_grid_blocks": (12, 8, 2), "_profile_blocks": (8,), "_azimuth_plan": (12, 8),
        }
        caches = plan_caches()
        assert set(caches) == set(calls)

        def arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, (tuple, list)):
                for item in obj:
                    yield from arrays(item)

        for name, args in calls.items():
            found = list(arrays(caches[name](*args)))
            assert found, name
            for arr in found:
                with pytest.raises(ValueError):
                    arr.flat[0] = 1.0
        t, wt = sphere._polar_rule(12)
        for arr in (t, wt, *sphere.make_grid(12).frame):
            with pytest.raises(ValueError):
                arr[0] = 0.0
