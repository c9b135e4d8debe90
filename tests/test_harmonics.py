import numpy as np
import pytest

from christoffel import harmonics, sphere
from christoffel.errors import BandLimitExceeded, NotAnalyzed, OrthogonalityViolation

from conftest import constant_field, harmonic_field


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


class TestTransforms:
    def test_constant_coefficient(self, grid16):
        f = harmonics.SphericalField(grid=grid16, values=np.ones(grid16.node_count))
        c = harmonics.analyze(f, 8)
        assert abs(c.get(0, 0) - np.sqrt(4 * np.pi)) < 1e-12
        assert np.max(np.abs(c.c[1:])) < 1e-10

    def test_single_mode_orthonormality(self, grid16):
        f = harmonic_field(grid16, 0.0, {(2, 1): 1.0}, L_max=8)
        c = harmonics.analyze(f, 8)
        assert abs(c.get(2, 1) - 1.0) < 1e-12
        rest = c.c.copy()
        rest[harmonics.HarmonicCoeffs.index(2, 1)] = 0.0
        assert np.max(np.abs(rest)) < 1e-10

    def test_round_trip_random(self, grid16):
        coeffs = random_coeffs(12, seed=1)
        f = harmonics.synthesize(coeffs, grid16)
        back = harmonics.analyze(f, 12)
        assert np.max(np.abs(back.c - coeffs.c)) < 1e-9

    def test_parseval(self, grid16):
        coeffs = random_coeffs(10, seed=2)
        f = harmonics.synthesize(coeffs, grid16)
        assert abs(np.sum(coeffs.c**2) - grid16.integrate(f.values**2)) < 1e-8

    def test_band_limit_gate(self, grid16):
        f = harmonics.SphericalField(grid=grid16, values=np.ones(grid16.node_count))
        with pytest.raises(BandLimitExceeded):
            harmonics.analyze(f, 16)

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
        M = harmonics.galerkin_matrix(g, grid, L_max)
        assert np.max(np.abs(M - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.array_equal(M, M.T)
        for node in (0, 5, grid.node_count // 2 + 3, grid.node_count - 1):
            row = harmonics.node_basis(grid, node, L_max)
            assert np.max(np.abs(row - B[node])) < 1e-14


class TestDerivatives:
    def test_gradient_constant(self, grid16):
        f = constant_field(grid16, 5.0, L_max=8)
        g = harmonics.sphere_gradient(f.coeffs, grid16.nodes[7])
        assert np.linalg.norm(g) < 1e-12

    def test_gradient_linear_field(self):
        # field x3 at x = (1,0,0): tangential part of e3 is e3 itself
        c = np.zeros(4)
        c[harmonics.HarmonicCoeffs.index(1, 0)] = np.sqrt(4 * np.pi / 3)
        coeffs = harmonics.HarmonicCoeffs(L_max=1, c=c)
        g = harmonics.sphere_gradient(coeffs, np.array([1.0, 0.0, 0.0]))
        assert np.max(np.abs(g - np.array([0.0, 0.0, 1.0]))) < 1e-12

    def test_gradient_finite_difference(self, grid16):
        coeffs = random_coeffs(10, seed=4)
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((10, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        grads = harmonics.gradient_at(coeffs, pts)
        h = 1e-5
        for i, x in enumerate(pts):
            e1, e2 = sphere.tangent_basis(x)
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
        H = harmonics.sphere_hessian(f.coeffs, grid16.nodes[3])
        assert np.max(np.abs(H)) < 1e-12

    def test_hessian_trace_is_eigenvalue(self, grid16):
        # trace Hess(Y_l^m) = -l(l+1) Y_l^m
        for l, m in [(2, 0), (3, -2), (4, 1)]:
            c = np.zeros(36)
            c[harmonics.HarmonicCoeffs.index(l, m)] = 1.0
            coeffs = harmonics.HarmonicCoeffs(L_max=5, c=c)
            for idx in (40, 222):
                x = grid16.nodes[idx]
                H = harmonics.sphere_hessian(coeffs, x)
                y = harmonics.synthesize_at(coeffs, x[None, :])[0]
                assert abs(H[0, 0] + H[1, 1] + l * (l + 1) * y) < 1e-8

    def test_hessian_finite_difference(self, grid16):
        coeffs = random_coeffs(10, seed=6)
        rng = np.random.default_rng(9)
        pts = rng.standard_normal((6, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        H = harmonics.hessian_at(coeffs, pts)
        h = 1e-4
        for i, x in enumerate(pts):
            e1, e2 = sphere.tangent_basis(x)
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
        # exact great-circle fallback at the poles
        coeffs = random_coeffs(8, seed=10)
        pole = np.array([[0.0, 0.0, 1.0]])
        g = harmonics.gradient_at(coeffs, pole)[0]
        H = harmonics.hessian_at(coeffs, pole)[0]
        e1, e2 = sphere.tangent_basis(pole[0])
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
        # n_phi = 6 folds orders m >= 6 onto m - 6; the pole point takes the
        # exact path
        coeffs = random_coeffs(L_max, seed=13)
        rng = np.random.default_rng(14)
        pts = rng.standard_normal((5, 3))
        pts[0] = [0.0, 0.0, 1.0]
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        e1, e2 = sphere.tangent_bases(pts)
        angles = rng.uniform(0.0, 2 * np.pi, len(pts))[:, None]
        dirs = np.cos(angles) * e1 + np.sin(angles) * e2
        vals, slopes = harmonics._orbit_values_and_slopes(coeffs, pts, dirs, n_phi)
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

    def test_requires_coeffs(self, grid16):
        f = harmonics.SphericalField(grid=grid16, values=np.ones(grid16.node_count))
        with pytest.raises(NotAnalyzed):
            harmonics.grid_gradient(f)


class TestThetaProfiles:
    @pytest.mark.parametrize("L_max", [0, 1, 2, 15, 32, 64])
    def test_matches_legendre_recursion(self, L_max):
        coeffs = random_coeffs(L_max, seed=20 + L_max)
        theta = np.random.default_rng(21).uniform(0.05, np.pi - 0.05, 200)
        got = harmonics._theta_profiles(coeffs, theta, 2)
        blocks = harmonics._legendre_blocks(np.cos(theta), L_max, 2)
        stacks = harmonics._coeff_stacks(coeffs)
        for d, bound in enumerate((1e-13, 1e-12, 1e-11)):
            want = harmonics._synth_theta_stacks(blocks, *stacks, L_max, d)
            scale = max(np.max(np.abs(w)) for w in want)
            for g, w in zip(got[d], want):
                assert g.shape == w.shape
                assert np.max(np.abs(g - w)) <= bound * scale

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
        f = harmonics.SphericalField(grid=grid16, values=vals)
        d = harmonics.orthogonality_defect(f)
        assert abs(d[2] - 4 * np.pi / 3) < 1e-8
        assert abs(d[0]) < 1e-10 and abs(d[1]) < 1e-10

    def test_even_field_defect_zero(self, grid16):
        vals = 1.0 + grid16.nodes[:, 0] ** 2
        f = harmonics.SphericalField(grid=grid16, values=vals)
        assert np.max(np.abs(harmonics.orthogonality_defect(f))) < 1e-10

    def test_projection_removes_linear(self, grid16):
        vals = 2.0 + grid16.nodes[:, 2]
        f = harmonics.SphericalField(grid=grid16, values=vals)
        g = harmonics.project_out_linear(f)
        assert np.max(np.abs(g.values - 2.0)) < 1e-12
        assert np.max(np.abs(harmonics.orthogonality_defect(g))) < 1e-10

    def test_projection_identity_when_orthogonal(self, grid16):
        f = harmonic_field(grid16, 2.0, {(2, 0): 0.4}, L_max=8)
        g = harmonics.project_out_linear(f)
        assert np.max(np.abs(g.values - f.values)) < 1e-12

    def test_projection_decomposition_exact(self, grid16):
        rng = np.random.default_rng(13)
        vals = 2.0 + 0.3 * rng.standard_normal(grid16.node_count)
        f = harmonics.SphericalField(grid=grid16, values=vals)
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
        u = harmonics.solve_christoffel(f)
        assert np.max(np.abs(u.values - 1.0)) < 1e-12

    def test_single_mode_division(self, grid16):
        # (Lap + 2) Y_2 = (2 - 6) Y_2 = -4 Y_2
        eps = 0.3
        f = harmonic_field(grid16, 2.0, {(2, 0): -4 * eps}, L_max=8)
        u = harmonics.solve_christoffel(f)
        expected = harmonic_field(grid16, 1.0, {(2, 0): eps}, L_max=8)
        assert np.max(np.abs(u.values - expected.values)) < 1e-12

    def test_kernel_direction_rejected(self, grid16):
        vals = grid16.nodes[:, 0].copy()
        f = harmonics.SphericalField(grid=grid16, values=vals)
        f = harmonics.SphericalField(grid=grid16, values=vals, coeffs=harmonics.analyze(f, 8))
        with pytest.raises(OrthogonalityViolation) as exc:
            harmonics.solve_christoffel(f)
        assert np.max(np.abs(exc.value.defect)) > 1e-2

    def test_project_flag_solves(self, grid16):
        vals = 2.0 + 0.3 * grid16.nodes[:, 2]
        f = harmonics.SphericalField(grid=grid16, values=vals)
        f = harmonics.SphericalField(grid=grid16, values=vals, coeffs=harmonics.analyze(f, 8))
        u = harmonics.solve_christoffel(f, project=True)
        assert np.max(np.abs(u.values - 1.0)) < 1e-10

    def test_residual_identity(self, grid16):
        coeffs = random_coeffs(10, seed=14)
        c = coeffs.c.copy()
        c[1:4] = 0.0
        f = harmonics.synthesize(harmonics.HarmonicCoeffs(L_max=10, c=c), grid16)
        u = harmonics.solve_christoffel(f, tol=1e-6)
        assert harmonics.christoffel_residual(u, f) < 1e-9

    def test_linearity(self, grid16):
        fa = harmonic_field(grid16, 1.0, {(2, 1): 0.2}, L_max=8)
        fb = harmonic_field(grid16, 3.0, {(4, -2): 0.1}, L_max=8)
        a, b = 2.0, -0.5
        combo = harmonics.SphericalField(
            grid=grid16,
            values=a * fa.values + b * fb.values,
            coeffs=harmonics.HarmonicCoeffs(L_max=8, c=a * fa.coeffs.c + b * fb.coeffs.c),
        )
        ua = harmonics.solve_christoffel(fa)
        ub = harmonics.solve_christoffel(fb)
        uc = harmonics.solve_christoffel(combo)
        assert np.max(np.abs(uc.values - (a * ua.values + b * ub.values))) < 1e-10

    def test_translation_normalization(self, grid16):
        # adding a small degree-1 part and projecting leaves the output unchanged
        f = harmonic_field(grid16, 2.0, {(2, 0): 0.5}, L_max=8)
        u0 = harmonics.solve_christoffel(f)
        shifted = harmonic_field(grid16, 2.0, {(2, 0): 0.5, (1, 1): 1e-9}, L_max=8)
        u1 = harmonics.solve_christoffel(shifted, project=True)
        assert np.max(np.abs(u1.values - u0.values)) < 1e-10
        assert harmonics.degree1_magnitude(u1.coeffs) == 0.0

    def test_bandlimit_reports_truncation(self, grid16):
        vals = np.exp(grid16.nodes[:, 2] * 3.0)
        f = harmonics.SphericalField(grid=grid16, values=vals)
        g, err = harmonics.bandlimit(f, 8)
        assert err > 0
        assert np.max(np.abs(g.values - vals)) <= err + 1e-12
        resynth = harmonics.synthesize(g.coeffs, grid16)
        assert np.max(np.abs(resynth.values - g.values)) < 1e-9
