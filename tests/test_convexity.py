import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from christoffel import body, convexity, harmonics, kernels, sphere
from christoffel.errors import NotPositive

from conftest import clear_program_caches, constant_field, harmonic_field, random_positive_field


def spectral_second_derivative(u, x, xi):
    """Ground truth <U(x) xi, xi> from the spectral solution's Hessian."""
    e1, e2 = sphere.tangent_basis(x)
    H = harmonics.sphere_hessian(u.coeffs, x)
    uval = harmonics.synthesize_at(u.coeffs, x[None, :])[0]
    q = np.array([xi @ e1, xi @ e2])
    return float(q @ H @ q + uval * (q @ q))


def random_witness(rng):
    x = rng.standard_normal(3)
    x /= np.linalg.norm(x)
    e1, e2 = sphere.tangent_basis(x)
    a = rng.uniform(0, 2 * np.pi)
    return x, np.cos(a) * e1 + np.sin(a) * e2


class TestCriterionValues:
    def test_cr2_constant_exact(self, const2_48):
        rng = np.random.default_rng(1)
        eng = convexity.CriterionEngine(const2_48, kernels.DEFAULT_TABLE, None)
        for _ in range(5):
            x, xi = random_witness(rng)
            assert abs(eng.cr2_value(x, xi) - 1.0) < 1e-10

    def test_cr2_constant_family(self, grid48):
        f5 = constant_field(grid48, 5.0, L_max=32)
        eng = convexity.CriterionEngine(f5, kernels.DEFAULT_TABLE, None)
        x, xi = random_witness(np.random.default_rng(2))
        assert abs(eng.cr2_value(x, xi) - 2.5) < 1e-10

    def test_cr1_constant_sign_and_scale(self, const2_48):
        # integrand -2 omega <xi,z>^2 >= 0; value = omega_2 * 1 up to quadrature
        rng = np.random.default_rng(3)
        eng = convexity.CriterionEngine(const2_48, kernels.DEFAULT_TABLE, None)
        for _ in range(3):
            x, xi = random_witness(rng)
            v = eng.cr1_value(x, xi)
            assert v > 0
            assert abs(v - 4 * np.pi) < 0.02

    def test_cr1_vs_cr2_consistency(self, grid48):
        # both criteria estimate the same second derivative, CR1 scaled by omega_2
        f = harmonic_field(grid48, 2.0, {(2, 0): 0.8, (3, 2): 0.3}, L_max=32)
        eng = convexity.CriterionEngine(f, kernels.DEFAULT_TABLE, None)
        rng = np.random.default_rng(4)
        for _ in range(5):
            x, xi = random_witness(rng)
            assert abs(eng.cr1_value(x, xi) / (4 * np.pi) - eng.cr2_value(x, xi)) < 5e-3

    def test_cr2_matches_spectral_truth(self, grid48):
        f = harmonic_field(grid48, 2.0, {(2, 0): 1.0, (4, -1): 0.2}, L_max=32)
        u = harmonics.solve_christoffel(f)
        eng = convexity.CriterionEngine(f, kernels.DEFAULT_TABLE, None)
        rng = np.random.default_rng(5)
        for _ in range(8):
            x, xi = random_witness(rng)
            truth = spectral_second_derivative(u, x, xi)
            assert abs(eng.cr2_value(x, xi) - truth) < 2e-3

    def test_ellipsoid_cr1_nonnegative_200_witnesses(self, grid48):
        ell = body.Ellipsoid(1.0, 1.2, 0.8)
        u = body.support_function(ell, grid48, L_max=32)
        f = body.forward_f(u)
        eng = convexity.CriterionEngine(f, kernels.DEFAULT_TABLE, None)
        rng = np.random.default_rng(6)
        for _ in range(200):
            x, xi = random_witness(rng)
            assert eng.cr1_value(x, xi) >= -1e-6

    def test_rotation_equivariance(self, grid48):
        # azimuthal rotations map the grid to itself, so equivariance of the
        # quadrature is exact up to rounding
        f = harmonic_field(grid48, 2.0, {(3, 1): 0.6, (2, -2): 0.4}, L_max=32)
        k = 7
        angle = 2 * np.pi * k / grid48.azimuth_count
        R = np.array(
            [[np.cos(angle), -np.sin(angle), 0],
             [np.sin(angle), np.cos(angle), 0],
             [0, 0, 1.0]]
        )
        vals = f.values.reshape(grid48.L, grid48.azimuth_count)
        rolled = np.roll(vals, k, axis=1).ravel()
        fr = harmonics.SphericalField(grid=grid48, values=rolled)
        fr = harmonics.SphericalField(
            grid=grid48, values=rolled, coeffs=harmonics.analyze(fr, 32)
        )
        eng = convexity.CriterionEngine(f, kernels.DEFAULT_TABLE, None)
        eng_r = convexity.CriterionEngine(fr, kernels.DEFAULT_TABLE, None)
        rng = np.random.default_rng(7)
        for _ in range(4):
            x, xi = random_witness(rng)
            assert abs(eng_r.cr2_value(R @ x, R @ xi) - eng.cr2_value(x, xi)) < 1e-8
            assert abs(eng_r.cr1_value(R @ x, R @ xi) - eng.cr1_value(x, xi)) < 1e-8

    def test_not_positive_rejected(self, grid48):
        f = harmonic_field(grid48, 0.1, {(2, 0): 2.0}, L_max=16)
        with pytest.raises(NotPositive):
            convexity.CriterionEngine(f, kernels.DEFAULT_TABLE, None)


class TestSweep:
    def test_constant_field(self, const2_48):
        rep = convexity.sweep(const2_48, "cr2")
        assert rep.verdicts["cr2"] == "holds"
        assert abs(rep.min_margin["cr2"] - 1.0) < 1e-8
        x, xi = rep.witness["cr2"]
        assert abs(np.linalg.norm(x.coords) - 1) < 1e-12
        assert abs(x.coords @ xi.dir) < 1e-12

    def test_single_mode_sign_agreement(self, grid48):
        # u = 1 + 0.5 Y_2^0 from f = 2 - 4 * 0.5 * Y_2^0: convex ground truth
        f = harmonic_field(grid48, 2.0, {(2, 0): -2.0}, L_max=32)
        u = harmonics.solve_christoffel(f)
        hmin, _ = convexity.hessian_min(u)
        rep = convexity.sweep(f, convexity.Criterion.CR2)
        assert np.sign(rep.min_margin["cr2"]) == np.sign(hmin)
        assert rep.verdicts["cr2"] == ("holds" if hmin > 0 else "fails")

    def test_nonconvex_detected_by_both(self, grid48):
        f = harmonic_field(grid48, 2.0, {(2, 0): 3.5}, L_max=32)
        u = harmonics.solve_christoffel(f)
        hmin, _ = convexity.hessian_min(u)
        assert hmin < -0.1
        for crit in ("cr1", "cr2"):
            rep = convexity.sweep(f, crit)
            assert rep.verdicts[crit] == "fails"
            assert rep.min_margin[crit] < 0

    def test_margin_tracks_hessian(self, grid48):
        for eps in (1.0, 3.5):
            f = harmonic_field(grid48, 2.0, {(2, 0): eps}, L_max=32)
            u = harmonics.solve_christoffel(f)
            hmin, _ = convexity.hessian_min(u)
            rep = convexity.sweep(f, "cr2")
            band = rep.error_band["cr2"]
            assert abs(rep.min_margin["cr2"] - hmin) < max(10 * band, 5e-3)

    def test_error_band_honest(self, grid48):
        # the reported band must cover the actual deviation from ground truth
        for eps, seed_terms in [(1.0, {(2, 0): 1.0}), (2.0, {(2, 0): 2.0, (3, 1): 0.3})]:
            f = harmonic_field(grid48, 2.0, seed_terms, L_max=32)
            u = harmonics.solve_christoffel(f)
            hmin, _ = convexity.hessian_min(u)
            rep = convexity.sweep(f, "cr2")
            assert abs(rep.min_margin["cr2"] - hmin) <= 10 * rep.error_band["cr2"]

    def test_inconclusive_near_boundary(self, grid48):
        # tune eps to the convexity boundary; the verdict must not claim a sign
        def hm(eps):
            f = harmonic_field(grid48, 2.0, {(2, 0): eps}, L_max=16)
            return convexity.hessian_min(harmonics.solve_christoffel(f))[0]

        eps_star = brentq(hm, 2.0, 3.2, xtol=1e-10)
        f = harmonic_field(grid48, 2.0, {(2, 0): eps_star}, L_max=16)
        rep = convexity.sweep(f, "cr2")
        assert rep.verdicts["cr2"] == "inconclusive"

    def test_shared_engine_matches_fresh(self, grid24):
        # one engine for both sweeps and Pogorelov gives the reports of
        # separate engines bit for bit, and refuses another field
        f = harmonic_field(grid24, 2.0, {(2, 0): 0.8, (3, 1): 0.2}, L_max=12)
        eng = convexity.CriterionEngine(f, kernels.DEFAULT_TABLE, None)
        for crit in ("cr1", "cr2"):
            shared, fresh = convexity.sweep(f, crit, engine=eng), convexity.sweep(f, crit)
            assert shared.min_margin == fresh.min_margin
            assert shared.error_band == fresh.error_band
            (x1, xi1), (x2, xi2) = shared.witness[crit], fresh.witness[crit]
            assert np.array_equal(x1.coords, x2.coords) and np.array_equal(xi1.dir, xi2.dir)
        assert convexity.check_pogorelov(f, eng) == convexity.check_pogorelov(f)
        other = harmonic_field(grid24, 2.0, {(2, 0): 0.8}, L_max=12)
        with pytest.raises(ValueError):
            convexity.sweep(other, "cr2", engine=eng)
        with pytest.raises(ValueError):
            convexity.check_pogorelov(other, eng)


def holder_pair_loop(f, alpha):
    """Reference Hoelder estimate: every ordered node pair, separations
    from the node coordinates."""
    nodes, vals = f.grid.nodes, f.values
    cos_min = np.cos(np.pi / f.grid.L)
    best = 0.0
    for a in range(len(nodes)):
        for b in range(len(nodes)):
            dot = min(max(float(nodes[a] @ nodes[b]), -1.0), 1.0)
            if dot <= cos_min:
                best = max(best, abs(vals[a] - vals[b]) / np.arccos(dot) ** alpha)
    return best


class TestRingPaths:
    @pytest.mark.parametrize("L", [12, 13])
    @pytest.mark.parametrize("crit", ["cr1", "cr2"])
    def test_grid_forms_match_node_forms(self, L, crit):
        # odd L puts a ring on the equator, where cap-mask ties are likeliest
        grid = sphere.make_grid(L)
        f = random_positive_field(grid, np.random.default_rng(40 + L), L_max=L - 1)
        eng = convexity.CriterionEngine(f, kernels.DEFAULT_TABLE, None)
        (c_full, S_full), (c_half, S_half) = eng.grid_forms(convexity.Criterion(crit))
        for i, x in enumerate(grid.nodes):
            if crit == "cr1":
                A, B, _ = eng.cr1_forms(x)
                a = b = 0.0
            else:
                (a, A), (b, B), _ = eng.cr2_forms(x)
            scale = max(abs(a), abs(b), np.max(np.abs(A)), np.max(np.abs(B)))
            assert np.max(np.abs(S_full[i] - A)) <= 1e-12 * scale
            assert np.max(np.abs(S_half[i] - B)) <= 1e-12 * scale
            assert abs(c_full[i] - a) <= 1e-12 * scale
            assert abs(c_half[i] - b) <= 1e-12 * scale

    @pytest.mark.parametrize("L", [12, 13])
    def test_holder_matches_pair_loop(self, L):
        grid = sphere.make_grid(L)
        f = random_positive_field(grid, np.random.default_rng(50 + L), L_max=L - 1)
        for alpha in (0.3, 0.5, 1.0):
            want = holder_pair_loop(f, alpha)
            assert abs(convexity.holder_seminorm(f, alpha) - want) <= 1e-13 * want

    def test_t33_orbits_match_point_evaluation(self, grid16):
        f = random_positive_field(grid16, np.random.default_rng(60), L_max=15)
        ts = np.geomspace(1e-2, 1e2, 4)
        angles = np.pi * np.arange(3) / 3
        vals, dxi = convexity._t33_samples(f.coeffs, grid16, ts, angles)
        nodes = grid16.nodes
        theta = np.arccos(nodes[:, 2])
        phi = np.arctan2(nodes[:, 1], nodes[:, 0])
        e_th = np.stack([np.cos(theta) * np.cos(phi), np.cos(theta) * np.sin(phi),
                         -np.sin(theta)], axis=1)
        e_ph = np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)], axis=1)
        scale = np.max(np.abs(f.values))
        for a, ang in enumerate(angles):
            xi = np.cos(ang) * e_th + np.sin(ang) * e_ph
            for k, t in enumerate(ts):
                for s, sign in enumerate((1.0, -1.0)):
                    q = (nodes + sign * t * xi) / np.sqrt(1.0 + t * t)
                    v, g = harmonics.values_and_gradient_at(f.coeffs, q)
                    assert np.max(np.abs(vals[a, k, s] - v)) <= 1e-12 * scale
                    assert np.max(np.abs(dxi[a, k, s] - np.sum(g * xi, axis=1))) <= 1e-11 * scale

    def test_t33_legendre_work_bounded(self, grid16, monkeypatch):
        # T33 takes its theta profiles from L_max + 2 Legendre colatitudes,
        # however many points it samples
        f = random_positive_field(grid16, np.random.default_rng(61), L_max=10)
        sizes = []
        packed = harmonics._legendre_packed

        def spy(t, L_max):
            sizes.append(len(t))
            return packed(t, L_max)

        monkeypatch.setattr(harmonics, "_legendre_packed", spy)
        clear_program_caches()
        convexity.check_T33(f)
        assert sizes and max(sizes) <= f.coeffs.L_max + 2


def rotate_about_z(coeffs, angle):
    """Coefficients of f(R^-1 x) for the rotation R by ``angle`` about z."""
    c = coeffs.c.copy()
    for l in range(coeffs.L_max + 1):
        for m in range(1, l + 1):
            a, b = coeffs.get(l, m), coeffs.get(l, -m)
            c[l * l + l + m] = a * np.cos(m * angle) - b * np.sin(m * angle)
            c[l * l + l - m] = a * np.sin(m * angle) + b * np.cos(m * angle)
    return harmonics.HarmonicCoeffs(L_max=coeffs.L_max, c=c)


class TestRotation:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 23))
    def test_grid_rotation_leaves_t33_and_hessian_min(self, seed, steps):
        grid = sphere.make_grid(12)
        f = random_positive_field(grid, np.random.default_rng(seed), L_max=8)
        angle = steps * 2 * np.pi / grid.azimuth_count
        g = harmonics.synthesize(rotate_about_z(f.coeffs, angle), grid)
        tol = 1e-12 * np.max(np.abs(f.values))
        # the rotation shifts every ring by ``steps`` nodes
        F, G = f.values.reshape(grid.L, -1), g.values.reshape(grid.L, -1)
        assert np.max(np.abs(G - np.roll(F, steps, axis=1))) <= tol
        (holds_f, worst_f), (holds_g, worst_g) = convexity.check_T33(f), convexity.check_T33(g)
        assert holds_f == holds_g and abs(worst_f - worst_g) <= tol
        h_f = convexity.hessian_min(harmonics.solve_christoffel(f, project=True))[0]
        h_g = convexity.hessian_min(harmonics.solve_christoffel(g, project=True))[0]
        assert abs(h_f - h_g) <= tol


class TestScaleInvariance:
    """Verdicts and margin signs do not depend on the units of f.

    The fields sit just past the T33 and Guan-Ma boundaries: their margins
    are far below 1e-8 at one end of the scale range and far above it at
    the other, so an absolute tolerance would flip the verdict.
    """

    @pytest.mark.parametrize(
        "checker, target",
        [(lambda f: convexity.check_T33(f, n_t=6, n_xi=2), 1e-7),
         (convexity.check_guan_ma, -1e-7)],
        ids=["t33", "guan_ma"],
    )
    def test_verdict_and_sign(self, grid24, checker, target):
        def field(eps, c=1.0):
            return harmonic_field(grid24, 2.0 * c, {(2, 0): eps * c}, L_max=12)

        eps = brentq(lambda e: checker(field(e))[1] - target, 0.5, 1.0, xtol=1e-12)
        results = [checker(field(eps, c)) for c in (1e-3, 1.0, 1e3)]
        assert [(holds, np.sign(m)) for holds, m in results] == [(False, np.sign(target))] * 3


class TestTwoByTwo:
    def test_min_eig_matches_eigvalsh(self):
        rng = np.random.default_rng(31)
        a, b, d = rng.standard_normal((3, 500)) * rng.uniform(1e-3, 1e3, (3, 500))
        got = convexity._min_eig2(a, b, d)
        want = np.linalg.eigvalsh(np.stack([np.stack([a, b], -1), np.stack([b, d], -1)], -2))
        scale = np.maximum(np.abs(want[:, 0]), np.abs(want[:, 1]))
        assert np.all(np.abs(got - want[:, 0]) <= 1e-13 * scale)

    def test_min_eig_degenerate(self):
        # diagonal (b = 0), equal diagonal (a = d), and both: a multiple of I
        a = np.array([3.0, -2.0, 1.5, 0.0, -4.0])
        b = np.array([0.0, 0.0, 0.7, -0.7, 0.0])
        d = np.array([-1.0, 5.0, 1.5, 0.0, -4.0])
        got = convexity._min_eig2(a, b, d)
        want = np.linalg.eigvalsh(np.stack([np.stack([a, b], -1), np.stack([b, d], -1)], -2))
        assert np.max(np.abs(got - want[:, 0])) <= 1e-15
        assert np.array_equal(got[[0, 1, 4]], [-1.0, -2.0, -4.0])

    def test_tangent_min_argmin_attains_minimum(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            x, _ = random_witness(rng)
            e1, e2 = sphere.tangent_basis(x)
            A = rng.standard_normal((3, 3))
            S = A + A.T
            if rng.random() < 0.2:
                S = np.eye(3) - np.outer(x, x)  # isotropic on the tangent plane
            lam, xi = convexity._tangent_min(S, e1, e2)
            assert abs(np.linalg.norm(xi) - 1.0) < 1e-12
            assert abs(xi @ x) < 1e-12
            assert abs(xi @ S @ xi - lam) <= 1e-12 * max(1.0, np.max(np.abs(S)))
            angles = np.linspace(0.0, np.pi, 181)
            fan = [(np.cos(t) * e1 + np.sin(t) * e2) @ S @ (np.cos(t) * e1 + np.sin(t) * e2)
                   for t in angles]
            assert lam <= min(fan) + 1e-12 * max(1.0, np.max(np.abs(S)))


class TestHessianMin:
    def test_unit_ball(self, grid24):
        u = constant_field(grid24, 1.0, L_max=12)
        hmin, _ = convexity.hessian_min(u)
        assert abs(hmin - 1.0) < 1e-10

    def test_continuity_anchor(self, grid24):
        # min eigenvalue decreases continuously from 1 as the bump grows
        vals = []
        for eps in (0.0, 0.2, 0.4):
            u = harmonic_field(grid24, 1.0, {(2, 0): eps}, L_max=12)
            vals.append(convexity.hessian_min(u)[0])
        assert abs(vals[0] - 1.0) < 1e-10
        assert vals[0] > vals[1] > vals[2]

    def test_ellipsoid_min_radius(self, grid48):
        ell = body.Ellipsoid(1.0, 1.2, 0.8)
        u = body.support_function(ell, grid48, L_max=32)
        hmin, _ = convexity.hessian_min(u)
        assert hmin > 0
        # smallest principal radius over the grid, against the analytic radii
        analytic = min(
            body.ellipsoid_principal_radii(ell, x)[0] for x in grid48.nodes[::37]
        )
        assert hmin <= analytic + 1e-9
        assert abs(hmin - ell.c**2 / ell.b) < 1e-3  # global min at the b-axis


class TestSufficientConditions:
    def test_t32_constant(self, grid24):
        f = constant_field(grid24, 2.0, L_max=12)
        holds, lhs, rhs = convexity.check_T32(f, 0.5)
        assert holds and lhs == 0.0 and rhs > 0

    def test_t32_small_bump_implies_convex(self, grid24):
        f = harmonic_field(grid24, 2.0, {(2, 0): 0.05}, L_max=12)
        holds, lhs, rhs = convexity.check_T32(f, 0.5)
        assert holds and lhs <= rhs
        u = harmonics.solve_christoffel(f)
        assert convexity.hessian_min(u)[0] >= -1e-6

    def test_t32_one_sided(self, grid24):
        f = harmonic_field(grid24, 2.0, {(2, 0): 1.5}, L_max=12)
        holds, lhs, rhs = convexity.check_T32(f, 0.5)
        assert not holds  # no convexity claim either way

    def test_t33_constant_formula(self, grid24):
        f = constant_field(grid24, 2.0, L_max=12)
        holds, worst = convexity.check_T33(f, n_t=6, n_xi=2)
        assert holds
        # worst sampled value matches -2 c t/(1+t^2)^(3/2) at the best t
        ts = np.geomspace(1e-3, 1e3, 6)
        expected = np.max(-2 * 2.0 * ts / (1 + ts**2) ** 1.5)
        assert abs(worst - expected) < 1e-9

    def test_t33_even_field_identity(self, grid24):
        f = harmonic_field(grid24, 2.0, {(2, 0): 0.3}, L_max=12)
        x = np.array([1.0, 0.0, 0.0])
        xi = np.array([0.0, 0.0, 1.0])
        t = 0.7
        coeffs = f.coeffs

        def dxi(y):
            r = np.linalg.norm(y)
            yh = y / r
            g = harmonics.gradient_at(coeffs, yh[None, :])[0]
            v = harmonics.synthesize_at(coeffs, yh[None, :])[0]
            return (g @ xi - v * (yh @ xi)) / r**2

        lhs = dxi(x + t * xi) - dxi(x - t * xi)
        assert abs(lhs - 2 * dxi(x + t * xi)) < 1e-12

    def test_t33_holds_implies_convex(self, grid24):
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(6):
            f = random_positive_field(grid24, rng, amp=rng.uniform(0.02, 0.6), L_max=12)
            holds, _ = convexity.check_T33(f, n_t=6, n_xi=2)
            if holds:
                u = harmonics.solve_christoffel(f, project=True)
                assert convexity.hessian_min(u)[0] >= -1e-6
                checked += 1
        assert checked >= 2

    def test_pogorelov_constant(self, grid24):
        f = constant_field(grid24, 2.0, L_max=12)
        holds, min_val = convexity.check_pogorelov(f)
        assert holds and abs(min_val - 2.0) < 1e-10

    def test_pogorelov_continuity(self, grid24):
        vals = []
        for eps in (0.0, 0.1, 0.2):
            f = harmonic_field(grid24, 2.0, {(2, 0): eps}, L_max=12)
            vals.append(convexity.check_pogorelov(f)[1])
        drops = np.diff(vals)
        assert np.all(drops < 0)
        assert abs((vals[1] - vals[0]) - (vals[2] - vals[1])) < 1e-9  # linear in eps

    def test_guan_ma_constant(self, grid24):
        f = constant_field(grid24, 4.0, L_max=12)
        holds, min_eig = convexity.check_guan_ma(f)
        assert holds and abs(min_eig - 0.25) < 1e-8

    def test_guan_ma_ball_field(self, grid24):
        # curvature data of a ball of radius R is f = 2R; min eig = 1/(2R)
        R = 1.5
        f = constant_field(grid24, 2 * R, L_max=12)
        holds, min_eig = convexity.check_guan_ma(f)
        assert holds and abs(min_eig - 1 / (2 * R)) < 1e-8

    def test_pogorelov_implies_guan_ma(self, grid24):
        rng = np.random.default_rng(22)
        implied = 0
        for _ in range(8):
            f = random_positive_field(grid24, rng, amp=rng.uniform(0.02, 0.4), L_max=12)
            pc, _ = convexity.check_pogorelov(f)
            if pc:
                gm, _ = convexity.check_guan_ma(f)
                assert gm
                implied += 1
        assert implied >= 3

    def test_guan_ma_implies_convex(self, grid24):
        rng = np.random.default_rng(23)
        implied = 0
        for _ in range(12):
            f = random_positive_field(grid24, rng, amp=rng.uniform(0.02, 0.4), L_max=12)
            gm, _ = convexity.check_guan_ma(f)
            if gm:
                u = harmonics.solve_christoffel(f, project=True)
                assert convexity.hessian_min(u)[0] >= -1e-6
                implied += 1
        assert implied >= 3
