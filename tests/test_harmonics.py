import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from christoffel import body, cli, convexity, harmonics, sphere
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
    grid_coordinate_product,
    grid_extension_channels,
    harmonic_field,
    hessian_at,
    orbit_values_and_slopes,
    random_positive_field,
    rotate_about_z,
    rotate_forms,
    sampled_field,
    table_grid_derivatives,
    table_profiles,
    theta_profile_derivatives,
)

import offgrid


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

def ref_legendre_packed(t, L_max):
    m_arr, l_arr, offsets = (np.array(a) for a in harmonics._pair_index(L_max)[:3])
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


def ref_legendre_blocks(t, L_max):
    packed = ref_legendre_packed(t, L_max)
    offsets = harmonics._pair_index(L_max)[2]
    return [packed[offsets[m] : offsets[m + 1], :] for m in range(L_max + 1)]


def ref_azimuth_table(phis, L_max):
    m = np.arange(L_max + 1)[:, None]
    arg = m * phis[None, :]
    scale = np.where(m > 0, np.sqrt(2.0), 1.0)
    table = np.empty((2 * (L_max + 1), len(phis)))
    table[0::2], table[1::2] = scale * np.cos(arg), scale * np.sin(arg)
    return table


def ref_profiles(blocks, cols, L_max):
    """Order-major profiles (L_max + 1, W, n_pts) of the pair columns cols
    (n_pairs, W), one product per order."""
    offsets = harmonics._pair_index(L_max)[2]
    return np.stack([cols[offsets[m] : offsets[m + 1]].T @ block for m, block in enumerate(blocks)])


def ref_analyze(grid, values, L_max):
    n = L_max + 1
    F = values.reshape(grid.L, -1) @ ref_azimuth_table(grid.phis, L_max).T * (np.pi / grid.L)
    F = (F * grid.polar_weights[:, None]).reshape(grid.L, n, 2)
    c = np.zeros(n * n)
    for m, block in enumerate(ref_legendre_blocks(grid.polar_nodes, L_max)):
        ls = np.arange(m, n)
        pair = block @ F[:, m]
        c[ls * ls + ls + m] = pair[:, 0]
        if m > 0:
            c[ls * ls + ls - m] = pair[:, 1]
    return c


def ref_synthesize(coeffs, grid):
    L_max = coeffs.L_max
    cols = ref_ladder_columns(coeffs.c, L_max)[:, [0, 4]]
    prof = ref_profiles(ref_legendre_blocks(grid.polar_nodes, L_max), cols, L_max)
    return (prof.reshape(2 * (L_max + 1), grid.L).T @ ref_azimuth_table(grid.phis, L_max)).ravel()


def ref_ladder_columns(c, L_max):
    """The 8 grid-derivative columns of every packed pair (m, l), entry by
    entry: for the cosine and then the sine terms, c_lm, -l(l + 1) c_lm,
    the down rung a_l(m+1) c_l(m+1) / 2 and the up rung -a_lm c_l(m-1) / 2
    (-a_l1 c_l0 at m = 1), with a_lm = sqrt((l + m)(l - m + 1))."""
    def coef(l, k):
        # c_lk with k signed (k < 0 a sine term), 0 where no such term
        return c[l * l + l + k] if abs(k) <= l else 0.0

    rows = []
    for m in range(L_max + 1):
        for l in range(m, L_max + 1):
            down = 0.5 * math.sqrt((l + m + 1.0) * (l - m))
            up = -(1.0 if m == 1 else 0.5) * math.sqrt((l + m) * (l - m + 1.0))
            lap = -(l * (l + 1.0))
            row = []
            for sgn in (1, -1):
                if sgn == -1 and m == 0:
                    row += [0.0, 0.0, coef(l, -1) * down, 0.0]
                    continue
                row += [coef(l, sgn * m), coef(l, sgn * m) * lap, coef(l, sgn * (m + 1)) * down,
                        coef(l, sgn * (m - 1)) * up if m - (sgn < 0) > 0 else 0.0]
            rows.append(row)
    return np.array(rows)


def ref_derivative_rows(field):
    """Grid rows f_theta, f_phi, f_theta_phi, f_phi_phi and the Laplacian,
    by the order-ladder route with every table built afresh: the first two
    and the last three from one product each."""
    grid, L_max = field.grid, field.coeffs.L_max
    cols = ref_ladder_columns(field.coeffs.c, L_max)
    prof = ref_profiles(ref_legendre_blocks(grid.polar_nodes, L_max), cols, L_max)
    prof = prof.reshape(L_max + 1, 2, 4, grid.L)
    m = np.arange(L_max + 1)[:, None, None]
    turn = m * np.array([[1.0], [-1.0]])
    val = prof[:, :, 0]
    dth = np.zeros_like(val)
    dth[1:] = prof[:-1, :, 2]
    dth[:-1] += prof[1:, :, 3]
    table = ref_azimuth_table(grid.phis, L_max)
    out = []
    for rows in ([dth, turn * val[:, ::-1]], [turn * dth[:, ::-1], -(m * m) * val, prof[:, :, 1]]):
        X = np.stack(rows, axis=2).reshape(2 * (L_max + 1), -1)
        out += list((X.T @ table).reshape(len(rows), -1))
    return out


def ref_grid_gradient(field):
    grid = field.grid
    dth, dph = ref_derivative_rows(field)[:2]
    theta = np.repeat(grid.thetas, grid.azimuth_count)
    e_th, e_ph = frame_vectors(theta, np.tile(grid.phis, grid.L))
    return e_th * dth[:, None] + e_ph * (dph / np.sin(theta))[:, None]


def ref_grid_hessian(field):
    grid = field.grid
    dth, dph, dthph, dphph, lap = ref_derivative_rows(field)
    theta = np.repeat(grid.thetas, grid.azimuth_count)
    s, c = np.sin(theta), np.cos(theta)
    H = np.empty((len(s), 2, 2))
    H[:, 0, 1] = H[:, 1, 0] = (dthph - (c / s) * dph) / s
    H[:, 1, 1] = dphph / (s * s) + (c / s) * dth
    H[:, 0, 0] = lap - H[:, 1, 1]
    return H


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


def ref_circle_derivatives(coeffs, x, d):
    """First and second derivatives of the field along the great circle
    cos(t) x + sin(t) d at t = 0, exact by one FFT of its samples (a
    trigonometric polynomial of degree <= L_max)."""
    K = 2 * coeffs.L_max + 2
    ts = 2.0 * np.pi * np.arange(K) / K
    F = np.fft.rfft(offgrid.synthesize_at(coeffs, np.outer(np.cos(ts), x) + np.outer(np.sin(ts), d)))
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
    A, B = offgrid.theta_profiles(coeffs, theta)
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
    cols = ref_ladder_columns(coeffs.c, L_max)[:, [0, 4]]
    prof = ref_profiles(ref_legendre_blocks(np.cos(nodes), L_max), cols, L_max)
    sign = ((-1.0) ** np.arange(n))[:, None, None]
    F = np.fft.rfft(np.concatenate([prof, sign * prof[..., -2:0:-1]], axis=-1))[..., :n] / n
    F[..., 0] *= 0.5
    W = np.stack([F.real, -F.imag], axis=-1).transpose(2, 3, 0, 1).reshape(2 * n, 2 * n)
    P = np.exp(1j * np.multiply.outer(theta, np.arange(n))).view(float) @ W
    A, B = P[:, 0::2], P[:, 1::2]
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

    @pytest.mark.parametrize("L, L_max", [(4, 0), (5, 4), (17, 16), (48, 32)])
    def test_analyze_is_adjoint_of_synthesize(self, L, L_max):
        # <synthesize(a), g> by quadrature equals a . analyze(g) for node
        # values g that are not band-limited: the transposed azimuth
        # product, the per-order adjoint products and the order-0 scatter
        grid = sphere.make_grid(L)
        rng = np.random.default_rng(L)
        a = rng.standard_normal((L_max + 1) ** 2)
        g = rng.standard_normal(grid.node_count)
        lhs = grid.integrate(harmonics.synthesize(harmonics.HarmonicCoeffs(L_max=L_max, c=a), grid).values * g)
        rhs = a @ harmonics.analyze(grid, g, L_max).c
        assert abs(lhs - rhs) <= 1e-13 * abs(rhs)

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
            ours = offgrid.synthesize_at(
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
        g = offgrid.values_and_gradient_at(f.coeffs, grid16.nodes[7:8])[1][0]
        assert np.linalg.norm(g) < 1e-12

    def test_gradient_linear_field(self):
        # field x3 at x = (1,0,0): tangential part of e3 is e3 itself
        c = np.zeros(4)
        c[harmonics.HarmonicCoeffs.index(1, 0)] = np.sqrt(4 * np.pi / 3)
        coeffs = harmonics.HarmonicCoeffs(L_max=1, c=c)
        g = offgrid.values_and_gradient_at(coeffs, np.array([[1.0, 0.0, 0.0]]))[1][0]
        assert np.max(np.abs(g - np.array([0.0, 0.0, 1.0]))) < 1e-12

    def test_gradient_finite_difference(self, grid16):
        coeffs = random_coeffs(10, seed=4)
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((10, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        grads = offgrid.values_and_gradient_at(coeffs, pts)[1]
        h = 1e-5
        for i, x in enumerate(pts):
            e1, e2 = (e[0] for e in sphere.tangent_bases(x[None]))
            for d in (e1, e2):
                plus = np.cos(h) * x + np.sin(h) * d
                minus = np.cos(h) * x - np.sin(h) * d
                fd = (
                    offgrid.synthesize_at(coeffs, plus[None, :])[0]
                    - offgrid.synthesize_at(coeffs, minus[None, :])[0]
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
                y = offgrid.synthesize_at(coeffs, x[None, :])[0]
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
            f0 = offgrid.synthesize_at(coeffs, x[None, :])[0]
            for q, d in [((1.0, 0.0), e1), ((0.0, 1.0), e2),
                         ((1 / np.sqrt(2), 1 / np.sqrt(2)), (e1 + e2) / np.sqrt(2))]:
                plus = np.cos(h) * x + np.sin(h) * d
                minus = np.cos(h) * x - np.sin(h) * d
                fd2 = (
                    offgrid.synthesize_at(coeffs, plus[None, :])[0]
                    - 2 * f0
                    + offgrid.synthesize_at(coeffs, minus[None, :])[0]
                ) / h**2
                qv = np.array(q)
                assert abs(qv @ H[i] @ qv - fd2) < 1e-5

    def test_pole_evaluation(self):
        # the extension channels need no pole test
        coeffs = random_coeffs(8, seed=10)
        pole = np.array([[0.0, 0.0, 1.0]])
        g = offgrid.values_and_gradient_at(coeffs, pole)[1][0]
        H = hessian_at(coeffs, pole)[0]
        e1, e2 = (e[0] for e in sphere.tangent_bases(pole))
        h = 1e-5
        for k, d in enumerate((e1, e2)):
            plus = np.cos(h) * pole[0] + np.sin(h) * d
            minus = np.cos(h) * pole[0] - np.sin(h) * d
            vp = offgrid.synthesize_at(coeffs, plus[None, :])[0]
            vm = offgrid.synthesize_at(coeffs, minus[None, :])[0]
            v0 = offgrid.synthesize_at(coeffs, pole)[0]
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
            v, g = offgrid.values_and_gradient_at(coeffs, pts @ R.T)
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


def frame_truth(f):
    """Grid gradient and Hessian of f in the node frame from the extension
    channels, synthesized on f's grid: no theta-derivative at all."""
    grid = f.grid
    E = np.stack([grid.frame.e_th, grid.frame.e_ph], axis=2)
    grad = harmonics.synthesize_channels(harmonics.ambient_gradient(f.coeffs.c, 0), grid)
    hess = np.stack([ch.c for ch in offgrid.extension_channels(f.coeffs).hess], axis=1)
    D2G = harmonics.synthesize_channels(hess, grid)[:, convexity._SYM_FULL]
    return grad, np.einsum("nki,nkl,nlj->nij", E, D2G, E) - f.values[:, None, None] * np.eye(2)


class TestGridDerivatives:
    @pytest.mark.parametrize("L, L_max", [(4, 0), (4, 1), (4, 2), (5, 2), (4, 3), (17, 16),
                                          (49, 48)])
    def test_edge_bands_match_table_oracle(self, L, L_max):
        # band 0 is the ladder's order-0 rung alone, bands 1 and 2 add the
        # sine of order 1 and the top orders; L = L_max + 1 is the smallest
        # grid of a band
        f = harmonics.synthesize(random_coeffs(L_max, seed=70 + L, decay=0.0), sphere.make_grid(L))
        grad, H = table_grid_derivatives(f)
        scale = max(np.max(np.abs(H)), np.max(np.abs(f.values)))
        assert np.max(np.abs(harmonics.grid_gradient(f) - grad)) <= 1e-13 * scale
        assert np.max(np.abs(harmonics.grid_hessian(f) - H)) <= 1e-13 * scale

    @pytest.mark.parametrize("L, L_max", [(17, 16), (48, 32), (96, 64), (128, 32)])
    def test_no_less_accurate_than_tables(self, L, L_max):
        # against the extension channels, the order ladder and the trace stay
        # within twice the error of the theta-derivative tables
        f = harmonics.synthesize(random_coeffs(L_max, seed=L, decay=0.0), sphere.make_grid(L))
        grad, H = frame_truth(f)
        table_grad, table_H = table_grid_derivatives(f)
        assert (np.max(np.abs(harmonics.grid_gradient(f) - grad))
                <= 2.0 * np.max(np.abs(table_grad - grad)))
        assert np.max(np.abs(harmonics.grid_hessian(f) - H)) <= 2.0 * np.max(np.abs(table_H - H))

    def test_gradient_and_hessian_share_one_profile_pass(self, grid16, monkeypatch):
        f = harmonics.synthesize(random_coeffs(8, seed=71), grid16)
        calls = []
        real = harmonics._grid_blocks
        monkeypatch.setattr(harmonics, "_grid_blocks",
                            lambda grid, L_max: calls.append((grid, L_max)) or real(grid, L_max))
        assert f.gradient.shape == (grid16.node_count, 3)
        assert f.hessian.shape == (grid16.node_count, 2, 2)
        assert len(calls) == 1 and calls[0][0] is grid16 and calls[0][1] == 8


class TestExtensionChannels:
    @pytest.mark.parametrize("L, L_max", [(16, 15), (17, 16), (48, 32), (96, 64)])
    def test_matches_frame_oracle(self, L, L_max):
        _, u = solved_pair(L, L_max, seed=L)
        pts = probe_points(2000, seed=L)
        scale = np.max(np.abs(offgrid.extension_hessian_at(u.coeffs, pts)))
        vals, grad, H = ref_point_derivatives(u.coeffs, pts)
        v, g = offgrid.values_and_gradient_at(u.coeffs, pts)
        assert np.array_equal(v, vals)
        assert np.max(np.abs(g - grad)) <= 1e-11 * scale
        assert np.max(np.abs(hessian_at(u.coeffs, pts) - H)) <= 1e-11 * scale

    @pytest.mark.parametrize("L, L_max", [(16, 15), (48, 32)])
    def test_trace_is_f_and_x_is_null(self, L, L_max):
        # tr D^2 U = Laplacian u + 2 u = f, and D^2 U x = 0 by 1-homogeneity
        f, u = solved_pair(L, L_max, seed=L + 1)
        pts = probe_points(500, seed=L + 1)
        D2U = offgrid.extension_hessian_at(u.coeffs, pts)
        assert np.array_equal(D2U, np.swapaxes(D2U, 1, 2))
        trace_err = np.trace(D2U, axis1=1, axis2=2) - offgrid.synthesize_at(f.coeffs, pts)
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
        assert np.max(np.abs(offgrid.extension_hessian_at(u.coeffs, pts) - analytic)) <= bound

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 23))
    def test_rotation_about_z(self, seed, steps):
        # g(x) = f(R^-1 x) has D^2 G(R x) = R D^2 F(x) R^T
        f = random_positive_field(sphere.make_grid(12), np.random.default_rng(seed), L_max=8)
        angle = steps * 2 * np.pi / 24
        R = np.array([[np.cos(angle), -np.sin(angle), 0.0],
                      [np.sin(angle), np.cos(angle), 0.0], [0.0, 0.0, 1.0]])
        pts = probe_points(50, seed)
        D2F = offgrid.extension_hessian_at(f.coeffs, pts)
        D2G = offgrid.extension_hessian_at(rotate_about_z(f.coeffs, angle), pts @ R.T)
        assert np.max(np.abs(D2G - R @ D2F @ R.T)) <= 1e-12 * np.max(np.abs(D2F))

    def test_built_once_per_coefficient_set(self, monkeypatch):
        built = []
        real = offgrid._extension_channels
        monkeypatch.setattr(offgrid, "_extension_channels",
                            lambda coeffs: built.append(coeffs) or real(coeffs))
        coeffs = random_coeffs(6, seed=30)
        pts = probe_points(5, seed=30)
        hessian_at(coeffs, pts)
        offgrid.values_and_gradient_at(coeffs, pts)
        offgrid.extension_hessian_at(coeffs, pts)
        assert built == [coeffs]
        offgrid.synthesize_at(random_coeffs(6, seed=31), pts)
        assert built == [coeffs]

    @pytest.mark.parametrize("L_max", [0, 1, 2, 12, 32])
    def test_matches_grid_route(self, L_max):
        # the channels from the coefficients equal the grid derivatives of
        # the field on the Gauss grid L_max + 3, analyzed there
        coeffs = random_coeffs(L_max, seed=50 + L_max, decay=0.0)
        chans = offgrid.extension_channels(coeffs)
        for got, want in zip(chans, grid_extension_channels(coeffs)):
            got = np.stack([ch.c for ch in got], axis=1)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_low_band(self):
        # L_max = 0: a constant c has D^2 U = c (I - x x^T)
        coeffs = harmonics.HarmonicCoeffs(L_max=0, c=np.array([2.0 * np.sqrt(4 * np.pi)]))
        pts = probe_points(20, seed=32)
        want = 2.0 * (np.eye(3) - pts[:, :, None] * pts[:, None, :])
        assert np.max(np.abs(offgrid.extension_hessian_at(coeffs, pts) - want)) <= 1e-14


def degrees(band):
    """Degree of every flat coefficient up to ``band``."""
    return np.repeat(np.arange(band + 1), 2 * np.arange(band + 1) + 1)


class TestCoordinateProduct:
    @pytest.mark.parametrize("band", [0, 1, 2, 12, 32, 64])
    def test_matches_grid_oracle(self, band):
        # x_j g against x_j times g's values on the Gauss grid band + 2,
        # which analyzes the product exactly.  The oracle's own floor, the
        # round trip of g through that grid (1.7e-12 at band 64, at orders
        # |m| <= 1), is added to the bound.
        c = np.random.default_rng(60 + band).standard_normal((band + 1) ** 2)
        grid = sphere.make_grid(max(band + 2, 4))
        g = harmonics.synthesize(harmonics.HarmonicCoeffs(L_max=band, c=c), grid)
        floor = np.max(np.abs(harmonics.analyze(grid, g.values, band).c - c))
        lower, upper = harmonics.coordinate_product(c)
        assert lower.shape == upper.shape == ((band + 2) ** 2, 3)
        for j in range(3):
            want = grid_coordinate_product(c, j, grid)
            assert np.max(np.abs(lower[:, j] + upper[:, j] - want)) <= 1e-13 * np.max(np.abs(c)) + floor

    @pytest.mark.parametrize("band", [0, 1, 6])
    def test_lowering_is_transpose_of_raising(self, band):
        # the operator is symmetric: <x_j Y_a, Y_b> = <Y_a, x_j Y_b>
        K, K1 = (band + 1) ** 2, (band + 2) ** 2
        raising = harmonics.coordinate_product(np.eye(K))[1]  # (K1, 3, K)
        lowering = harmonics.coordinate_product(np.eye(K1))[0][:K]  # (K, 3, K1)
        for j in range(3):
            assert np.array_equal(lowering[:, j], raising[:, j].T)

    @pytest.mark.parametrize("k", [0, 1, 2, 7])
    def test_parts_are_the_neighbouring_degrees(self, k):
        # a degree-k expansion times x_j has degrees k - 1 and k + 1 only,
        # the lowering part the one and the raising part the other
        band = 8
        c = np.random.default_rng(k).standard_normal((band + 1) ** 2)
        c[degrees(band) != k] = 0.0
        lower, upper = harmonics.coordinate_product(c)
        l = degrees(band + 1)
        assert np.all(lower[l != k - 1] == 0.0) and np.all(upper[l != k + 1] == 0.0)
        assert (k == 0) == (np.max(np.abs(lower)) == 0.0)
        # x^2 + y^2 + z^2 = 1: the three products keep the norm of g
        norm = np.sum(c * c)
        assert abs(np.sum(lower * lower) + np.sum(upper * upper) - norm) <= 1e-14 * norm

    def test_channel_stack_equals_columns(self):
        c = np.random.default_rng(61).standard_normal((10 ** 2, 4))
        stacked = harmonics.coordinate_product(c)
        assert stacked.shape == (2, 11 ** 2, 3, 4)
        for i in range(4):
            assert np.array_equal(stacked[..., i], harmonics.coordinate_product(c[:, i]))

    @pytest.mark.parametrize("band", [0, 1, 12, 32])
    @pytest.mark.parametrize("d", [-1, 0, 1])
    def test_ambient_gradient_matches_grid(self, band, d):
        # d_j of the d-homogeneous extension is grad g + d g x on S^2
        c = random_coeffs(band, seed=62 + band, decay=0.0).c
        grid = sphere.make_grid(max(band + 2, 4))
        g = harmonics.synthesize(harmonics.HarmonicCoeffs(L_max=band, c=c), grid)
        want = g.gradient + d * g.values[:, None] * grid.nodes
        got = harmonics.synthesize_channels(harmonics.ambient_gradient(c, d), grid)
        assert np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), np.max(np.abs(c)))

    @pytest.mark.parametrize("L, band", [(4, 2), (17, 16), (48, 34)])
    def test_synthesize_channels_equals_columns(self, L, band):
        c = np.random.default_rng(L).standard_normal(((band + 1) ** 2, 6))
        grid = sphere.make_grid(L)
        got = harmonics.synthesize_channels(c, grid)
        want = np.stack([harmonics.synthesize(harmonics.HarmonicCoeffs(L_max=band, c=v), grid).values
                         for v in c.T], axis=1)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        # a flat (K,) array is one expansion: (N,), the values of synthesize
        single = harmonics.synthesize_channels(c[:, 0], grid)
        assert single.shape == (grid.node_count,)
        assert np.array_equal(single, want[:, 0])


class TestThetaProfiles:
    @pytest.mark.parametrize("L_max", [0, 1, 2, 15, 32, 64])
    def test_matches_legendre_recursion(self, L_max):
        coeffs = random_coeffs(L_max, seed=20 + L_max)
        theta = np.random.default_rng(21).uniform(0.05, np.pi - 0.05, 200)
        got = [offgrid.theta_profiles(coeffs, theta)]
        got += theta_profile_derivatives(coeffs, theta, 2)
        for bound, got_d, want in zip((1e-13, 1e-12, 1e-11), got,
                                      table_profiles(coeffs, np.cos(theta))):
            scale = max(np.max(np.abs(w)) for w in want)
            for g, w in zip(got_d, want):
                assert g.shape == w.shape
                assert np.max(np.abs(g - w)) <= bound * scale

    @pytest.mark.parametrize("L_max", [0, 5, 32])
    def test_channels_share_one_profile_pass(self, L_max, monkeypatch):
        # a stack of channels takes one profile FFT and gives what
        # synthesize_at gives channel by channel
        channels = [random_coeffs(L_max, seed=40 + k) for k in range(6)]
        pts = probe_points(300, seed=41)
        want = np.stack([offgrid.synthesize_at(c, pts) for c in channels], axis=-1)
        ffts = []
        rfft = np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft", lambda *a, **kw: ffts.append(1) or rfft(*a, **kw))
        got = offgrid.synthesize_at(channels, pts)
        assert len(ffts) == 1
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("L_max", [0, 5, 32])
    def test_hessian_takes_one_profile_pass(self, L_max, monkeypatch):
        # the values join the D^2 G channels at their band: one set of theta
        # profiles per call
        coeffs = random_coeffs(L_max, seed=42 + L_max)
        pts = probe_points(50, seed=43)
        offgrid.extension_channels(coeffs)  # built before counting
        calls = []
        profiles = offgrid.theta_profiles
        monkeypatch.setattr(offgrid, "theta_profiles",
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
            assert np.max(np.abs(offgrid.synthesize_at(coeffs, pts) - exact(pts))) <= 1e-15


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


def assert_matches_reference(grid, L_max, seed):
    """Every transform at band L_max on ``grid``, through its kept tables and
    the cached plans, equals the per-call reference bit for bit."""
    coeffs = random_coeffs(L_max, seed)
    f = harmonics.synthesize(coeffs, grid)
    assert np.array_equal(f.values, ref_synthesize(coeffs, grid))
    rng = np.random.default_rng(seed)
    for values in (f.values, rng.standard_normal(grid.node_count)):
        assert np.array_equal(harmonics.analyze(grid, values, L_max).c,
                              ref_analyze(grid, values, L_max))
    assert np.array_equal(harmonics.grid_gradient(f), ref_grid_gradient(f))
    assert np.array_equal(harmonics.grid_hessian(f), ref_grid_hessian(f))
    pts = rng.standard_normal((50, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    assert np.array_equal(offgrid.synthesize_at(coeffs, pts), ref_synthesize_at(coeffs, pts))


def plan_caches():
    return {name: obj for name, obj in vars(harmonics).items()
            if hasattr(obj, "cache_clear") and obj.__module__ == harmonics.__name__}


class TestTransformPlan:
    @pytest.mark.parametrize("L, L_max", PLAN_SIZES)
    def test_bitwise_reference(self, L, L_max):
        # from empty caches and a fresh grid, then again from the entries
        # and the grid tables the first pass built
        clear_program_caches()
        grid = sphere.make_grid(L)
        assert_matches_reference(grid, L_max, seed=L + L_max)
        assert_matches_reference(grid, L_max, seed=L + L_max + 1)

    def test_bitwise_reference_after_eviction(self):
        L, L_max = PLAN_SIZES[1]
        grid = sphere.make_grid(L)
        assert_matches_reference(grid, L_max, seed=3)
        # more sizes than any plan cache holds, each a new key of every cache
        fillers = [(L_max + 1 + L_max % 3, L_max) for L_max in range(2, 22)]
        largest = max(cache.cache_info().maxsize for cache in plan_caches().values())
        assert len(fillers) > largest
        for filler_L, filler_Lmax in fillers:
            coeffs = random_coeffs(filler_Lmax, seed=filler_L)
            harmonics.grid_hessian(harmonics.synthesize(coeffs, sphere.make_grid(filler_L)))
        # the kept grid tables beside the rebuilt plans, then all afresh
        assert_matches_reference(grid, L_max, seed=4)
        assert_matches_reference(sphere.make_grid(L), L_max, seed=5)

    @pytest.mark.parametrize("L_max", [0, 1, 2, 3])
    def test_legendre_small_bands_bitwise(self, L_max):
        # bands with no recursion step (0, 1) and with one or two diagonals
        t = np.concatenate([sphere._polar_rule(5)[0], [-1.0, 0.0, 1.0]])
        P = harmonics._legendre_packed(t, L_max)
        assert np.array_equal(P.view(np.int64), ref_legendre_packed(t, L_max).view(np.int64))

    def test_legendre_underflow_bitwise(self):
        # at (256, 192) the recursion underflows towards the poles: its
        # subnormal entries and its zeros, of either sign, come out bit for bit
        t = sphere._polar_rule(256)[0]
        P = harmonics._legendre_packed(t, 192)
        assert np.sum((P != 0.0) & (np.abs(P) < np.finfo(float).tiny)) == 188
        assert np.sum(P == 0.0) == 1122 and np.any((P == 0.0) & np.signbit(P))
        assert np.array_equal(P.view(np.int64), ref_legendre_packed(t, 192).view(np.int64))

    def test_check_reads_one_table_per_grid(self, tmp_path, monkeypatch):
        # from empty caches, a check builds one Legendre table and one
        # azimuth table in its grid's slot and one table of coordinate terms
        # in the module's, and no derivative tables: the channels' wider
        # band L_max + 2 extends each kept table, which then equals a table
        # built afresh at the widest band
        clear_program_caches()
        grown = []
        widest = harmonics._widest

        def spy(store, name, band, extend):
            def traced(old):
                grown.append((id(store), name, old, extend(old)))
                return grown[-1][-1]
            return widest(store, name, band, traced)

        monkeypatch.setattr(harmonics, "_widest", spy)
        assert cli.main(["check", "--L", "16", "--Lmax", "8",
                         "--report", str(tmp_path / "report.json")]) == 0
        kept = {}
        for store, name, old, new in grown:
            assert old is kept.get((store, name)), name
            kept[store, name] = new
        assert sorted(name for _, name in kept) == ["azimuth", "coordinates", "legendre"]
        slot = {name: store for store, name in kept}
        assert slot["legendre"] == slot["azimuth"] != slot["coordinates"]
        # each extended once, from f's band to the channels' band
        assert sorted(name for _, name, old, _ in grown if old is not None) == [
            "azimuth", "coordinates", "legendre"]
        final = {name: table for (_, name), table in kept.items()}
        t = sphere._polar_rule(16)[0]
        assert np.array_equal(final["legendre"].view(np.int64),
                              ref_legendre_packed(t, 10).view(np.int64))
        assert np.array_equal(final["azimuth"].view(np.int64),
                              ref_azimuth_table(sphere.make_grid(16).phis, 10).view(np.int64))
        for table, fresh in zip(final["coordinates"], harmonics._coordinate_terms(None, 10)):
            assert np.array_equal(table, fresh)

    @pytest.mark.parametrize("L, L_max", [(16, 8), (48, 32)])
    def test_check_keeps_one_legendre_table_per_grid(self, tmp_path, monkeypatch, L, L_max):
        # the sweep grows the grid's band-L_max table to L_max + 2: nothing
        # keeps the narrower one alive, and the grid's slot holds one
        # Legendre and one azimuth table
        grids, built = [], []
        make_grid, packed = cli.make_grid, harmonics._legendre_packed

        def spy(t, band, base=None):
            P = packed(t, band, base)
            built.append((band, weakref.ref(P)))
            return P

        monkeypatch.setattr(cli, "make_grid", lambda n: grids.append(make_grid(n)) or grids[-1])
        monkeypatch.setattr(harmonics, "_legendre_packed", spy)
        clear_program_caches()
        assert cli.main(["check", "--L", str(L), "--Lmax", str(L_max),
                         "--report", str(tmp_path / "report.json")]) == 0
        gc.collect()
        assert [band for band, _ in built] == [L_max, L_max + 2]
        assert built[0][1]() is None
        (grid,) = grids
        assert sorted(grid.tables) == ["azimuth", "legendre"]
        assert built[1][1]() is grid.tables["legendre"][0]
        assert grid.tables["azimuth"][0].shape == (2 * (L_max + 3), 2 * L)

    def test_cached_tables_read_only(self):
        calls = {"_pair_index": [(8,)], "_coordinate_plan": [(8,)], "_ladder_plan": [(8,)],
                 "_coordinate_store": [()]}
        caches = plan_caches()
        assert set(caches) == set(calls)

        def arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, (tuple, list)):
                for item in obj:
                    yield from arrays(item)
            elif isinstance(obj, dict):
                yield from arrays(list(obj.values()))

        clear_program_caches()
        grid = sphere.make_grid(12)
        harmonics._grid_blocks(grid, 8)
        harmonics._azimuth_plan(grid, 8)
        for name, keys in calls.items():
            for args in keys:
                found = list(arrays(caches[name](*args)))
                assert found, name
                for arr in found:
                    with pytest.raises(ValueError):
                        arr.flat[0] = 1.0
        # the grid's azimuth table, its Legendre table with the 9 per-order
        # views of band 8, and the coordinate terms
        assert sorted(grid.tables) == ["azimuth", "legendre"]
        assert [len(list(arrays(grid.tables[name]))) for name in ("azimuth", "legendre")] == [1, 10]
        assert len(list(arrays(caches["_coordinate_store"]()))) == 2
        for arr in arrays(grid.tables):
            with pytest.raises(ValueError):
                arr.flat[0] = 1.0
        with pytest.raises(ValueError):
            harmonics._azimuth_plan(grid, 8)[0, 0] = 1.0
        t, wt = sphere._polar_rule(12)
        for arr in (t, wt, *grid.frame):
            with pytest.raises(ValueError):
                arr[0] = 0.0
