import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from christoffel import body, convexity, harmonics, kernels, sphere
from christoffel.errors import NotPositive

from conftest import (
    clear_program_caches,
    constant_field,
    ellipsoid_principal_radii,
    grid_criterion_forms,
    harmonic_field,
    hessian_at,
    random_positive_field,
    rotate_about_z,
    rotate_forms,
    sampled_field,
    t33_differences,
    t33_oracle,
    t33_samples,
)

import offgrid


def spectral_second_derivative(u, x, xi):
    """Ground truth <U(x) xi, xi> from the spectral solution's Hessian."""
    e1, e2 = (e[0] for e in sphere.tangent_bases(x[None]))
    H = hessian_at(u.coeffs, x[None, :])[0]
    uval = offgrid.synthesize_at(u.coeffs, x[None, :])[0]
    q = np.array([xi @ e1, xi @ e2])
    return float(q @ H @ q + uval * (q @ q))


def random_witness(rng):
    x = rng.standard_normal(3)
    x /= np.linalg.norm(x)
    e1, e2 = (e[0] for e in sphere.tangent_bases(x[None]))
    a = rng.uniform(0, 2 * np.pi)
    return x, np.cos(a) * e1 + np.sin(a) * e2


def random_node_witness(grid, rng):
    """A random node i of the grid and a random unit xi tangent there."""
    i = int(rng.integers(grid.node_count))
    a = rng.uniform(0, 2 * np.pi)
    return i, np.cos(a) * grid.frame.e_th[i] + np.sin(a) * grid.frame.e_ph[i]


def cap_quadrature(f, i, crit, delta=None):
    """The paper's criterion integral at node i by direct quadrature, the
    oracle for :func:`convexity.criterion_forms`: (c, S) with the criterion
    at (x, xi) equal to c + xi^T S xi.

    A geodesic cap of radius ``delta`` (default 2 pi / L) around x is
    excluded.  The first-order expansion of the data at x is subtracted:
    over any cap-excluded domain the kernel moments int omega(s) z dz and
    int hat_omega(s, <xi, z>) z dz lie in span(x) by symmetry, so this
    changes the exact integral by nothing and leaves a bounded integrand.
    The cap is restored to second order by a local model: -pi delta^2
    (Hess f(xi, xi) - f(x)) for CR1, from omega ~ -2/rho^2 near x, and
    delta^2 (tr Hess f - 2 Hess f(xi, xi)) / 16 for CR2, from
    hat_omega ~ (1/2 - cos^2 psi)/(pi rho^2).
    """
    table = kernels.DEFAULT_TABLE
    Z, w = f.grid.nodes, f.grid.weights
    x = Z[i]
    if delta is None:
        delta = 2.0 * np.pi / f.grid.L
    s = Z @ x
    out = s <= np.cos(delta)
    s, Zo, wo = s[out], Z[out], w[out]
    fx, gx = f.values[i], f.gradient[i]
    E = np.stack([f.grid.frame.e_th[i], f.grid.frame.e_ph[i]], axis=1)
    Hx = E @ harmonics.grid_hessian(f)[i] @ E.T  # ambient form of the Hessian
    proj = np.eye(3) - np.outer(x, x)
    if crit == "cr1":
        V = f.gradient - f.values[:, None] * Z
        S = np.einsum("n,na,nb->ab", wo * table.omega(s), Zo, V[out] - V[i])
        return 0.0, 0.5 * (S + S.T) - np.pi * delta**2 * (Hx - fx * proj)
    d = f.values[out] - fx - Zo @ gx
    c = float(np.sum(wo * table.hat_A(s) * d)) + fx / 2.0
    P = np.einsum("n,na,nb->ab", wo * table.hat_B(s) * d, Zo, Zo)
    return c, -3.0 * P + delta**2 * (np.trace(Hx) * proj - 2.0 * Hx) / 16.0


def criterion_value(f, crit, i, xi):
    """The criterion at node i of f's grid along the unit tangent xi."""
    c, S = convexity.criterion_forms(f, crit)
    return float(c[i] + xi @ S[i] @ xi)


def node_minima(f, crit):
    """The criterion minimized over tangent directions at every node."""
    c, S = convexity.criterion_forms(f, crit)
    frame = f.grid.frame
    return convexity._min_eig2(*convexity._tangent_form(S, frame.e_th, frame.e_ph)) + c


def tangent_min(S, e1, e2):
    """Minimum of xi^T S xi over unit xi in span(e1, e2), with argmin, for
    one form S (3, 3)."""
    e1, e2 = e1[None, :], e2[None, :]
    vals, _, xi = convexity._form_min(*convexity._tangent_form(S[None], e1, e2), e1, e2)
    return float(vals[0]), xi


def lambda_min(u):
    """min eig(Hess u + u I) at every node."""
    H = harmonics.grid_hessian(u)
    return convexity._min_eig2(H[:, 0, 0] + u.values, H[:, 0, 1], H[:, 1, 1] + u.values)


class TestCriterionValues:
    def test_cr2_constant_exact(self, const2_48):
        rng = np.random.default_rng(1)
        for _ in range(5):
            i, xi = random_node_witness(const2_48.grid, rng)
            assert abs(criterion_value(const2_48, "cr2", i, xi) - 1.0) < 1e-10

    def test_cr2_constant_family(self, grid48):
        f5 = constant_field(grid48, 5.0, L_max=32)
        i, xi = random_node_witness(grid48, np.random.default_rng(2))
        assert abs(criterion_value(f5, "cr2", i, xi) - 2.5) < 1e-10

    def test_cr1_constant_sign_and_scale(self, const2_48):
        # integrand -2 omega <xi,z>^2 >= 0; value = omega_2 * 1
        rng = np.random.default_rng(3)
        for _ in range(3):
            i, xi = random_node_witness(const2_48.grid, rng)
            assert abs(criterion_value(const2_48, "cr1", i, xi) - 4 * np.pi) < 4 * np.pi * 2e-12

    def test_cr1_vs_cr2_consistency(self, grid48):
        # both criteria give the same second derivative, CR1 scaled by omega_2
        f = harmonic_field(grid48, 2.0, {(2, 0): 0.8, (3, 2): 0.3}, L_max=32)
        tol = 1e-10 * np.max(np.abs(f.values))
        rng = np.random.default_rng(4)
        for _ in range(5):
            i, xi = random_node_witness(grid48, rng)
            cr1, cr2 = criterion_value(f, "cr1", i, xi), criterion_value(f, "cr2", i, xi)
            assert abs(cr1 / (4 * np.pi) - cr2) < tol

    def test_cr2_matches_spectral_truth(self, grid48):
        f = harmonic_field(grid48, 2.0, {(2, 0): 1.0, (4, -1): 0.2}, L_max=32)
        u = harmonics.solve_christoffel(f).u
        tol = 1e-10 * np.max(np.abs(f.values))
        rng = np.random.default_rng(5)
        for _ in range(8):
            i, xi = random_node_witness(grid48, rng)
            truth = spectral_second_derivative(u, grid48.nodes[i], xi)
            assert abs(criterion_value(f, "cr2", i, xi) - truth) < tol

    def test_ellipsoid_cr1_nonnegative_200_witnesses(self, grid48):
        # CR1 / (4 pi) is a second derivative of the support function: at
        # least the smallest principal radius c^2 / b, up to band truncation,
        # at 200 nodes along random tangent directions
        ell = body.Ellipsoid(1.0, 1.2, 0.8)
        u = body.support_function(ell, grid48, L_max=32)
        f = body.forward_f(u)
        rng = np.random.default_rng(6)
        nodes, xis = zip(*(random_node_witness(grid48, rng) for _ in range(200)))
        c, S = convexity.criterion_forms(f, "cr1")
        xis = np.array(xis)
        cr1 = c[list(nodes)] + np.einsum("ni,nij,nj->n", xis, S[list(nodes)], xis)
        assert np.min(cr1) / (4 * np.pi) >= ell.c**2 / ell.b - 1e-6

    def test_rotation_equivariance(self, grid48):
        # azimuthal rotations map the grid to itself, so equivariance is
        # exact up to rounding
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
        fr = sampled_field(grid48, rolled, 32)
        scale = np.max(np.abs(f.values))
        rng = np.random.default_rng(7)
        n = grid48.azimuth_count
        for _ in range(4):
            i, xi = random_node_witness(grid48, rng)
            i_rot = i - i % n + (i + k) % n  # the node R x, k azimuth steps on
            assert np.allclose(grid48.nodes[i_rot], R @ grid48.nodes[i], rtol=0, atol=1e-14)
            for crit, tol in (("cr2", 1e-10), ("cr1", 4 * np.pi * 1e-12)):
                rotated = criterion_value(fr, crit, i_rot, R @ xi)
                assert abs(rotated - criterion_value(f, crit, i, xi)) < tol * scale

    def test_not_positive_rejected(self, grid48):
        f = harmonic_field(grid48, 0.1, {(2, 0): 2.0}, L_max=16)
        for crit in ("cr1", "cr2"):
            with pytest.raises(NotPositive):
                convexity.sweep(f, crit)


def support_field(axes, grid, L_max):
    return body.forward_f(body.support_function(body.Ellipsoid(*axes), grid, L_max))


def random_field_without_degree1(grid, L_max, seed):
    c = np.random.default_rng(seed).standard_normal((L_max + 1) ** 2)
    c *= 0.1 / np.sqrt(1.0 + np.arange(c.size))
    c[0], c[1:4] = 2.0 * np.sqrt(4.0 * np.pi), 0.0
    return harmonics.synthesize(harmonics.HarmonicCoeffs(L_max=L_max, c=c), grid)


FIELD_CLASSES = {
    "ellipsoid": lambda grid, L_max: support_field((1.0, 1.2, 1.5), grid, L_max),
    "ellipsoid_elongated": lambda grid, L_max: support_field((0.5, 1.0, 2.0), grid, L_max),
    "bump": lambda grid, L_max: harmonic_field(grid, 2.0, {(2, 0): 3.5}, L_max),
    "constant": lambda grid, L_max: constant_field(grid, 2.0, L_max),
    "random": lambda grid, L_max: random_field_without_degree1(grid, L_max, 8),
}


class TestFunkHecke:
    @pytest.mark.parametrize("L, L_max", [(17, 16), (24, 16), (48, 32), (96, 64)])
    @pytest.mark.parametrize("kind", sorted(FIELD_CLASSES))
    def test_every_node_matches_hessian(self, L, L_max, kind):
        # CR1 / (4 pi) and CR2 equal min eig(Hess u + u I) at every node to
        # rounding, and the reported band covers both gaps
        f = FIELD_CLASSES[kind](sphere.make_grid(L), L_max)
        lam = lambda_min(harmonics.solve_christoffel(f).u)
        scale = np.max(np.abs(f.values))
        gap1 = np.max(np.abs(node_minima(f, "cr1") - 4 * np.pi * lam))
        gap2 = np.max(np.abs(node_minima(f, "cr2") - lam))
        assert gap1 <= 4 * np.pi * 1e-12 * scale
        assert gap2 <= 1e-10 * scale
        assert gap1 <= convexity.sweep(f, "cr1").error_band
        assert gap2 <= convexity.sweep(f, "cr2").error_band

    @pytest.mark.parametrize("L, L_max", [(17, 16), (48, 32)])
    @pytest.mark.parametrize("kind", ["ellipsoid", "bump", "random"])
    def test_route_gap_within_band(self, L, L_max, kind):
        # the f route (sweeps) and the u route (Hessian of the solution)
        # agree within the sweep's error band, and the gap sees a shift
        f = FIELD_CLASSES[kind](sphere.make_grid(L), L_max)
        lam = convexity.hessian_min(harmonics.solve_christoffel(f).u)[2]
        for crit in ("cr1", "cr2"):
            rep = convexity.sweep(f, crit)
            gap = convexity.route_gap(rep, lam)
            assert 0.0 <= gap <= rep.error_band
            assert convexity.route_gap(rep, lam + 1e-6) >= 1e-6 - gap

    @pytest.mark.parametrize("L, L_max", [(17, 16), (48, 32), (96, 64), (128, 32)])
    @pytest.mark.parametrize("kind", ["ellipsoid", "bump", "random"])
    def test_forms_match_grid_route(self, L, L_max, kind):
        # the channels built from f's coefficients and the channels analyzed
        # on the Gauss grid L_max + 3 give the same tangent forms and node
        # minima within the sweep's error band at every node (measured at
        # most 0.26 band)
        f = FIELD_CLASSES[kind](sphere.make_grid(L), L_max)
        frame = f.grid.frame
        for crit in ("cr1", "cr2"):
            band = convexity.sweep(f, crit).error_band
            (c, S), (c0, S0) = convexity.criterion_forms(f, crit), grid_criterion_forms(f, crit)
            forms = np.stack(convexity._tangent_form(S, frame.e_th, frame.e_ph))
            forms0 = np.stack(convexity._tangent_form(S0, frame.e_th, frame.e_ph))
            assert np.max(np.abs(forms - forms0)) <= band
            minima = convexity._min_eig2(*forms) + c
            assert np.max(np.abs(minima - (convexity._min_eig2(*forms0) + c0))) <= band

    @pytest.mark.parametrize("crit", ["cr1", "cr2"])
    def test_cap_quadrature_oracle(self, grid48, crit, monkeypatch):
        # the paper's integrals by direct quadrature agree with the forms
        # within the quadrature's own error (measured at most 2.1e-3 max|f|
        # at these nodes), and a wrong multiplier, H_{l+1} for H_l, is
        # caught: it moves the forms by 7e-2 max|f| or more.  The cap model
        # needs smooth data: on full-band fields the quadrature is off by
        # several percent, so the random field has degrees <= 5 only.
        fields = [FIELD_CLASSES["ellipsoid_elongated"](grid48, 32),
                  FIELD_CLASSES["bump"](grid48, 32),
                  random_positive_field(grid48, np.random.default_rng(3), L_max=32)]
        nodes = np.arange(0, grid48.node_count, 37)
        e1s, e2s = grid48.frame.e_th, grid48.frame.e_ph
        unit = 4 * np.pi if crit == "cr1" else 1.0
        oracles = []
        for f in fields:
            forms = [cap_quadrature(f, i, crit) for i in nodes]
            oracles.append(np.array([c + tangent_min(S, e1s[i], e2s[i])[0]
                                     for i, (c, S) in zip(nodes, forms)]))
        gaps = [np.max(np.abs(node_minima(f, crit)[nodes] - want)) / (unit * np.max(f.values))
                for f, want in zip(fields, oracles)]
        assert max(gaps) <= 5e-3
        harmonic_numbers = convexity._harmonic_numbers
        monkeypatch.setattr(convexity, "_harmonic_numbers", lambda L: harmonic_numbers(L)
                            + np.repeat(1.0 / np.arange(1, L + 2), 2 * np.arange(L + 1) + 1))
        mutated = [np.max(np.abs(node_minima(f, crit)[nodes] - want)) / (unit * np.max(f.values))
                   for f, want in zip(fields, oracles)]
        assert min(mutated) > 5e-3


class TestSweep:
    def test_constant_field(self, const2_48):
        rep = convexity.sweep(const2_48, "cr2")
        assert rep.criterion is convexity.Criterion.CR2
        assert rep.verdict == "holds"
        assert abs(rep.min_margin - 1.0) < 1e-8
        x, xi = rep.witness
        assert abs(np.linalg.norm(x.coords) - 1) < 1e-12
        assert abs(x.coords @ xi.dir) < 1e-12

    def test_single_mode_sign_agreement(self, grid48):
        # u = 1 + 0.5 Y_2^0 from f = 2 - 4 * 0.5 * Y_2^0: convex ground truth
        f = harmonic_field(grid48, 2.0, {(2, 0): -2.0}, L_max=32)
        u = harmonics.solve_christoffel(f).u
        hmin = convexity.hessian_min(u)[0]
        rep = convexity.sweep(f, convexity.Criterion.CR2)
        assert np.sign(rep.min_margin) == np.sign(hmin)
        assert rep.verdict == ("holds" if hmin > 0 else "fails")

    def test_nonconvex_detected_by_both(self, grid48):
        f = harmonic_field(grid48, 2.0, {(2, 0): 3.5}, L_max=32)
        u = harmonics.solve_christoffel(f).u
        hmin = convexity.hessian_min(u)[0]
        assert hmin < -0.1
        for crit in ("cr1", "cr2"):
            rep = convexity.sweep(f, crit)
            assert rep.verdict == "fails"
            assert rep.min_margin < 0

    def test_margin_tracks_hessian(self, grid48):
        for eps in (1.0, 3.5):
            f = harmonic_field(grid48, 2.0, {(2, 0): eps}, L_max=32)
            u = harmonics.solve_christoffel(f).u
            hmin = convexity.hessian_min(u)[0]
            rep = convexity.sweep(f, "cr2")
            band = rep.error_band
            assert abs(rep.min_margin - hmin) < max(10 * band, 5e-3)

    def test_error_band_honest(self, grid48):
        # the reported band must cover the actual deviation from ground truth
        for eps, seed_terms in [(1.0, {(2, 0): 1.0}), (2.0, {(2, 0): 2.0, (3, 1): 0.3})]:
            f = harmonic_field(grid48, 2.0, seed_terms, L_max=32)
            u = harmonics.solve_christoffel(f).u
            hmin = convexity.hessian_min(u)[0]
            rep = convexity.sweep(f, "cr2")
            assert abs(rep.min_margin - hmin) <= 10 * rep.error_band

    def test_inconclusive_near_boundary(self, grid48):
        # tune eps to the convexity boundary; the verdict must not claim a sign
        def hm(eps):
            f = harmonic_field(grid48, 2.0, {(2, 0): eps}, L_max=16)
            return convexity.hessian_min(harmonics.solve_christoffel(f).u)[0]

        eps_star = brentq(hm, 2.0, 3.2, xtol=1e-10)
        f = harmonic_field(grid48, 2.0, {(2, 0): eps_star}, L_max=16)
        rep = convexity.sweep(f, "cr2")
        assert rep.verdict == "inconclusive"


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


def ref_holder_seminorm(f, alpha):
    """Reference Hoelder grid value: the full (ring, ring, azimuth offset)
    table, every difference formed, rings k >= i."""
    grid = f.grid
    t = grid.polar_nodes
    st = np.sqrt(1.0 - t * t)
    # s[i, k, d] = <x, z>, x on ring i and z on ring k, d azimuth steps apart
    s = np.multiply.outer(np.outer(st, st), np.cos(grid.phis))
    s += np.outer(t, t)[:, :, None]
    ok = s <= np.cos(np.pi / grid.L)
    dist_a = np.where(ok, np.arccos(np.clip(s, -1.0, 1.0)), 1.0) ** alpha
    n = grid.azimuth_count
    F = f.values.reshape(grid.L, n)
    shifted = F[:, (np.arange(n)[:, None] + np.arange(n)[None, :]) % n]  # [k, j, d] = f(k, j + d)
    best = 0.0
    for i in range(grid.L):
        num = np.max(np.abs(F[i][None, :, None] - shifted[i:]), axis=1)  # (k, d): max over j
        best = max(best, float(np.max(np.where(ok[i, i:], num / dist_a[i, i:], 0.0))))
    return best


def random_even_field(grid, L_max, seed):
    """Random field of even degrees only, so f(-x) = f(x) and many pairs tie."""
    c = 0.05 * np.random.default_rng(seed).standard_normal((L_max + 1) ** 2)
    for l in range(1, L_max + 1, 2):
        c[l * l : (l + 1) ** 2] = 0.0
    c[0] = 2.0 * np.sqrt(4.0 * np.pi)
    return harmonics.synthesize(harmonics.HarmonicCoeffs(L_max=L_max, c=c), grid)


HOLDER_FIELDS = {
    "ellipsoid": FIELD_CLASSES["ellipsoid"],
    "sectoral": lambda grid, L_max: harmonic_field(grid, 2.0, {(3, 3): 0.4}, L_max),
    "random_even": lambda grid, L_max: random_even_field(grid, L_max, 5),
    "constant": FIELD_CLASSES["constant"],
}


class TestHolderSearch:
    @pytest.mark.parametrize("L, L_max", [(12, 11), (13, 12), (17, 16), (48, 32), (64, 48)])
    @pytest.mark.parametrize("kind", sorted(HOLDER_FIELDS))
    def test_equals_full_table(self, L, L_max, kind):
        # the pruned search returns the full table's value to the last bit
        f = HOLDER_FIELDS[kind](sphere.make_grid(L), L_max)
        for alpha in (1e-100, 1e-3, 0.25, 0.3, 0.5, 0.9, 1):
            want = ref_holder_seminorm(f, alpha)
            assert repr(convexity.holder_seminorm(f, alpha)) == repr(want), alpha
            if kind == "constant":
                assert want == 0.0

    @pytest.mark.parametrize("group", [1, 7, 300])
    def test_bound_groups_equal_full_table(self, group, monkeypatch):
        # the window bounds formed a few ring pairs at a time, down to one
        # pair per group, give the full table's value to the last bit
        monkeypatch.setattr(convexity, "_HOLDER_GROUP", group)
        for kind in sorted(HOLDER_FIELDS):
            f = HOLDER_FIELDS[kind](sphere.make_grid(17), 16)
            for alpha in (1e-3, 0.5, 1):
                assert convexity.holder_seminorm(f, alpha) == ref_holder_seminorm(f, alpha), kind

    def test_heap_below_one_separation_table(self):
        # separations are formed where they are read: the search allocates
        # less than one (L, L, n) float table of them, and so far less than
        # the (L, n, n) difference block of a full table row sweep
        grid = sphere.make_grid(96)
        f = random_even_field(grid, 64, 5)
        tracemalloc.start()
        try:
            convexity.holder_seminorm(f, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < grid.L * grid.L * grid.azimuth_count * 8


class TestRingPaths:
    @pytest.mark.parametrize("L", [12, 13])
    def test_holder_matches_pair_loop(self, L):
        grid = sphere.make_grid(L)
        f = random_positive_field(grid, np.random.default_rng(50 + L), L_max=L - 1)
        for alpha in (0.3, 0.5, 1.0):
            want = holder_pair_loop(f, alpha)
            assert abs(convexity.holder_seminorm(f, alpha) - want) <= 1e-13 * want

    def test_t33_orbits_match_point_evaluation(self, grid16):
        # the T33 oracle's ring-wise orbits give the values and slopes of
        # point evaluation
        f = random_positive_field(grid16, np.random.default_rng(60), L_max=15)
        ts = np.geomspace(1e-2, 1e2, 4)
        angles = np.pi * np.arange(3) / 3
        vals, dxi = t33_samples(f.coeffs, grid16, ts, angles)
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
                    v, g = offgrid.values_and_gradient_at(f.coeffs, q)
                    assert np.max(np.abs(vals[a, k, s] - v)) <= 1e-12 * scale
                    assert np.max(np.abs(dxi[a, k, s] - np.sum(g * xi, axis=1))) <= 1e-11 * scale


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
        (holds_f, min_f, _), (holds_g, min_g, _) = convexity.check_T33(f), convexity.check_T33(g)
        assert holds_f == holds_g and abs(min_f - min_g) <= tol
        h_f = convexity.hessian_min(harmonics.solve_christoffel(f, project=True).u)[0]
        h_g = convexity.hessian_min(harmonics.solve_christoffel(g, project=True).u)[0]
        assert abs(h_f - h_g) <= tol
        for crit in ("cr1", "cr2"):
            rep_f, rep_g = convexity.sweep(f, crit), convexity.sweep(g, crit)
            assert rep_f.verdict == rep_g.verdict
            assert abs(rep_f.min_margin - rep_g.min_margin) <= rep_f.error_band


class TestScaleInvariance:
    """Verdicts and margin signs do not depend on the units of f.

    The fields of the T33 and Guan-Ma checks sit just past their
    boundaries: their margins are far below 1e-8 at one end of the scale
    range and far above it at the other, so an absolute tolerance would
    flip the verdict.  The CR margins and error bands scale with f.
    """

    @pytest.mark.parametrize(
        "checker, target",
        [(convexity.check_T33, -1e-7), (convexity.check_guan_ma, -1e-7)],
        ids=["t33", "guan_ma"],
    )
    def test_verdict_and_sign(self, grid24, checker, target):
        def field(eps, c=1.0):
            return harmonic_field(grid24, 2.0 * c, {(2, 0): eps * c}, L_max=12)

        eps = brentq(lambda e: checker(field(e))[1] - target, 0.5, 1.0, xtol=1e-12)
        results = [checker(field(eps, c)) for c in (1e-3, 1.0, 1e3)]
        assert [(r[0], np.sign(r[1])) for r in results] == [(False, np.sign(target))] * 3

    @pytest.mark.parametrize("eps", [0.8, 3.5], ids=["convex", "not_convex"])
    @pytest.mark.parametrize("crit", ["cr1", "cr2"])
    def test_criterion_margin_and_band(self, grid24, crit, eps):
        reps = {c: convexity.sweep(harmonic_field(grid24, 2.0 * c, {(2, 0): eps * c}, L_max=12),
                                   crit) for c in (1e-3, 1.0, 1e3)}
        one = reps[1.0]
        assert one.verdict == ("holds" if eps < 1 else "fails")
        for c, rep in reps.items():
            assert rep.verdict == one.verdict
            assert abs(rep.min_margin - c * one.min_margin) <= c * one.error_band
            assert abs(rep.error_band - c * one.error_band) <= 1e-14 * c * one.error_band


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
            e1, e2 = (e[0] for e in sphere.tangent_bases(x[None]))
            A = rng.standard_normal((3, 3))
            S = A + A.T
            if rng.random() < 0.2:
                S = np.eye(3) - np.outer(x, x)  # isotropic on the tangent plane
            lam, xi = tangent_min(S, e1, e2)
            assert abs(np.linalg.norm(xi) - 1.0) < 1e-12
            assert abs(xi @ x) < 1e-12
            assert abs(xi @ S @ xi - lam) <= 1e-12 * max(1.0, np.max(np.abs(S)))
            angles = np.linspace(0.0, np.pi, 181)
            fan = [(np.cos(t) * e1 + np.sin(t) * e2) @ S @ (np.cos(t) * e1 + np.sin(t) * e2)
                   for t in angles]
            assert lam <= min(fan) + 1e-12 * max(1.0, np.max(np.abs(S)))


    @pytest.mark.parametrize("b", [1e-12, -3.9e-10, 1e-8, 0.0])
    def test_argmin_of_nearly_diagonal_form(self, b):
        # a form that is diagonal up to b, as in the node frame of an
        # axis-aligned ellipsoid: the direction is formed without the
        # cancellation of lambda - a, so its value is the minimum to rounding
        e1, e2 = np.eye(3)[None, 0], np.eye(3)[None, 1]
        for a, d in ((-2.1093370742239883, 3.1913415820743065), (3.19, -2.1), (1.0, 1.0)):
            A, B, D = np.array([a]), np.array([b]), np.array([d])
            vals, _, xi = convexity._form_min(A, B, D, e1, e2)
            value = a * xi[0] ** 2 + 2 * b * xi[0] * xi[1] + d * xi[1] ** 2
            assert abs(np.linalg.norm(xi) - 1.0) <= 1e-15
            assert abs(value - vals[0]) <= 4 * np.finfo(float).eps * max(abs(a), abs(d))


class TestHessianMin:
    def test_unit_ball(self, grid24):
        u = constant_field(grid24, 1.0, L_max=12)
        hmin = convexity.hessian_min(u)[0]
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
        hmin = convexity.hessian_min(u)[0]
        assert hmin > 0
        # smallest principal radius over the grid, against the analytic radii
        analytic = min(
            ellipsoid_principal_radii(ell, x)[0] for x in grid48.nodes[::37]
        )
        assert hmin <= analytic + 1e-9
        assert abs(hmin - ell.c**2 / ell.b) < 1e-3  # global min at the b-axis

    @pytest.mark.parametrize("L, L_max", [(48, 32), (128, 32), (192, 128)])
    def test_zonal_closed_form_within_band(self, L, L_max):
        # f = 2 + 3.5 Y_2^0 solves to u = 1 + k P_2(cos theta), k = -3.5
        # sqrt(5 / 4 pi) / 4, with principal radii u_thth + u and u_th
        # cot(theta) + u; hessian_min is within 0.15 CR1 band (the sweep's
        # error band / 4 pi) of their minimum at every node (measured at most
        # 0.073 band, at (128, 32))
        f = harmonic_field(sphere.make_grid(L), 2.0, {(2, 0): 3.5}, L_max)
        t = f.grid.nodes[:, 2]
        k = -3.5 / 4.0 * np.sqrt(5.0 / (4.0 * np.pi))
        u = 1.0 + k * 0.5 * (3.0 * t * t - 1.0)
        exact = np.minimum(u - 3.0 * k * (2.0 * t * t - 1.0), u - 3.0 * k * t * t)
        mins = convexity.hessian_min(harmonics.solve_christoffel(f).u)[2]
        band = convexity.sweep(f, "cr1").error_band / (4.0 * np.pi)
        assert np.max(np.abs(mins - exact)) <= 0.15 * band


class TestNodeFrame:
    @pytest.mark.parametrize("L, L_max", [(24, 16), (48, 32)])
    @pytest.mark.parametrize("kind", ["ellipsoid", "bump", "random"])
    def test_minima_match_tangent_bases_rotation(self, L, L_max, kind):
        # every node minimum is read in the node frame (e_theta, e_phi); the
        # same forms rewritten in the bases of sphere.tangent_bases, the
        # frame they were once rotated into, give the same minima
        f = FIELD_CLASSES[kind](sphere.make_grid(L), L_max)
        frame = (f.grid.frame.e_th, f.grid.frame.e_ph)
        bases = sphere.tangent_bases(f.grid.nodes)
        H = rotate_forms(f.hessian, frame, bases)
        v = f.values
        g1, g2 = (np.sum(f.gradient * e, axis=1) for e in bases)
        pogorelov = (v - H[:, 0, 0], -H[:, 0, 1], v - H[:, 1, 1])
        guan_ma = tuple(p + 2.0 / v * q for p, q in zip(pogorelov, (g1 * g1, g1 * g2, g2 * g2)))
        pairs = [(convexity.hessian_min(f)[2],
                  convexity._min_eig2(H[:, 0, 0] + v, H[:, 0, 1], H[:, 1, 1] + v)),
                 (convexity._min_eig2(*convexity._pogorelov_form(f)),
                  convexity._min_eig2(*pogorelov)),
                 (convexity._min_eig2(*convexity._guan_ma_form(f)), convexity._min_eig2(*guan_ma))]
        for crit in ("cr1", "cr2"):
            c, S = convexity.criterion_forms(f, crit)
            pairs.append((convexity.sweep(f, crit).node_margins,
                          convexity._min_eig2(*convexity._tangent_form(S, *bases)) + c))
        for got, want in pairs:
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-13 * scale


class TestSufficientConditions:
    def test_t32_constant(self, grid24):
        f = constant_field(grid24, 2.0, L_max=12)
        holds, lhs, rhs = convexity.check_T32(f, 0.5)
        assert holds and lhs == 0.0 and rhs > 0

    def test_t32_small_bump_implies_convex(self, grid24):
        f = harmonic_field(grid24, 2.0, {(2, 0): 0.05}, L_max=12)
        holds, lhs, rhs = convexity.check_T32(f, 0.5)
        assert holds and lhs <= rhs
        u = harmonics.solve_christoffel(f).u
        assert convexity.hessian_min(u)[0] >= -1e-6

    def test_t32_one_sided(self, grid24):
        f = harmonic_field(grid24, 2.0, {(2, 0): 1.5}, L_max=12)
        holds, lhs, rhs = convexity.check_T32(f, 0.5)
        assert not holds  # no convexity claim either way

    def test_t33_constant_formula(self, grid24):
        f = constant_field(grid24, 2.0, L_max=12)
        holds, worst = t33_oracle(f, n_t=6, n_xi=2)
        assert holds
        # worst sampled value matches -2 c t/(1+t^2)^(3/2) at the best t
        ts = np.geomspace(1e-3, 1e3, 6)
        expected = np.max(-2 * 2.0 * ts / (1 + ts**2) ** 1.5)
        assert abs(worst - expected) < 1e-9
        # and the form f I - Hess f is c I
        holds, min_val, _ = convexity.check_T33(f)
        assert holds and abs(min_val - 2.0) < 1e-10

    def test_t33_even_field_identity(self, grid24):
        f = harmonic_field(grid24, 2.0, {(2, 0): 0.3}, L_max=12)
        x = np.array([1.0, 0.0, 0.0])
        xi = np.array([0.0, 0.0, 1.0])
        t = 0.7
        coeffs = f.coeffs

        def dxi(y):
            r = np.linalg.norm(y)
            yh = y / r
            v, g = offgrid.values_and_gradient_at(coeffs, yh[None, :])
            return (g[0] @ xi - v[0] * (yh @ xi)) / r**2

        lhs = dxi(x + t * xi) - dxi(x - t * xi)
        assert abs(lhs - 2 * dxi(x + t * xi)) < 1e-12

    def test_t33_holds_implies_convex(self, grid24):
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(6):
            f = random_positive_field(grid24, rng, amp=rng.uniform(0.02, 0.6), L_max=12)
            sampled, _ = t33_oracle(f, n_t=6, n_xi=2)
            if sampled or convexity.check_T33(f)[0]:
                u = harmonics.solve_christoffel(f, project=True).u
                assert convexity.hessian_min(u)[0] >= -1e-6
                checked += 1
        assert checked >= 2

    def test_pogorelov_constant(self, grid24):
        f = constant_field(grid24, 2.0, L_max=12)
        holds, min_val, _ = convexity.check_pogorelov(f)
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
            pc = convexity.check_pogorelov(f)[0]
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
                u = harmonics.solve_christoffel(f, project=True).u
                assert convexity.hessian_min(u)[0] >= -1e-6
                implied += 1
        assert implied >= 3


def zonal_guan_ma_min(grid, base, eps):
    """Closed-form Guan-Ma minimum over the nodes for f = base + eps Y_2^0:
    with g = 1/f(theta), the form Hess g + g I has the eigenvalues g'' + g
    along e_theta and g' cot(theta) + g along e_phi."""
    k = np.sqrt(5.0 / (16.0 * np.pi))
    c = grid.nodes[:, 2]
    s = np.sqrt(1.0 - c * c)
    f = base + eps * k * (3.0 * c * c - 1.0)
    df = -6.0 * eps * k * c * s
    d2f = -6.0 * eps * k * (c * c - s * s)
    g, dg, d2g = 1.0 / f, -df / f**2, -d2f / f**2 + 2.0 * df**2 / f**3
    return float(np.min(np.minimum(d2g + g, dg * c / s + g))), float(np.max(g))


class TestGuanMa:
    @pytest.mark.parametrize("eps", [0.3, 0.8, 1.2, 2.5])
    def test_zonal_closed_form(self, grid24, eps):
        f = harmonic_field(grid24, 2.0, {(2, 0): eps}, L_max=12)
        want, inv_max = zonal_guan_ma_min(grid24, 2.0, eps)
        assert abs(convexity.check_guan_ma(f)[1] - want) <= 1e-12 * inv_max

    @pytest.mark.parametrize("name", sorted(FIELD_CLASSES))
    def test_pogorelov_implies_guan_ma_at_every_node(self, grid24, name):
        # f^2 (Hess(1/f) + (1/f) I) is f I - Hess f plus a positive
        # semidefinite rank-one term, so its smaller eigenvalue is at least
        # the Pogorelov one at each node, not only in the minimum, up to the
        # rounding of the 2x2 eigenvalue (a few ulps of the form's entries)
        f = FIELD_CLASSES[name](grid24, 12)
        pogorelov = convexity._min_eig2(*convexity._pogorelov_form(f))
        form = convexity._guan_ma_form(f)
        scaled = convexity._min_eig2(*form)
        ulps = 4.0 * np.finfo(float).eps * sum(np.abs(x) for x in form)
        assert np.all(scaled >= pogorelov - ulps)
        assert convexity.check_pogorelov(f)[1] == float(np.min(pogorelov))
        assert convexity.check_guan_ma(f)[1] == float(np.min(scaled / f.values**2))

    def test_builds_no_grid_and_no_analysis(self, grid24, monkeypatch):
        # the form is read on f's own nodes: no finer grid, no transform of 1/f
        f = random_positive_field(grid24, np.random.default_rng(24), L_max=12)
        calls = []
        for mod in (sphere, harmonics, convexity):
            if hasattr(mod, "make_grid"):
                monkeypatch.setattr(mod, "make_grid",
                                    lambda L, _real=mod.make_grid: calls.append(L) or _real(L))
        monkeypatch.setattr(harmonics, "analyze",
                            lambda *args, **kw: pytest.fail("analyze called"))
        clear_program_caches()
        convexity.check_guan_ma(f)
        # the node frame of f's own grid is the only grid built
        assert set(calls) <= {f.grid.L}


def baseline_t33_field(grid):
    """The field at (24, 16) whose T33 failure four sampled directions per
    node miss: c_00 = 7.09 and degrees 2 and 3 only."""
    c = np.zeros(17**2)
    c[0] = 7.09
    for l, row in ((2, [0.1, -0.046, 0.086, -0.154, -0.042]),
                   (3, [0.008, 0.09, -0.122, 0.167, 0.048, -0.053, 0.122])):
        c[l * l : (l + 1) ** 2] = row
    return harmonics.synthesize(harmonics.HarmonicCoeffs(L_max=16, c=c), grid)


def scaled_past_threshold(f, delta):
    """f = c + h rescaled to c + s h, with s = (1 + delta) times the s at
    which the Pogorelov minimum is zero: the minimum is c + s m_h for every
    s > 0, with m_h the minimum of h's form, so its node does not move."""
    c = f.coeffs.c.copy()
    base = c[0] / np.sqrt(4.0 * np.pi)
    s_star = base / (base - convexity.check_pogorelov(f)[1])
    c[1:] *= s_star * (1.0 + delta)
    return harmonics.synthesize(harmonics.HarmonicCoeffs(L_max=f.coeffs.L_max, c=c), f.grid)


def great_circle(x, xi, theta):
    """Points cos(theta) x + sin(theta) xi and their theta-derivatives."""
    c, s = np.cos(theta)[:, None], np.sin(theta)[:, None]
    return c * x + s * xi, -s * x + c * xi


class TestT33:
    def test_baseline_field_does_not_hold(self, grid24):
        # four sampled directions per node miss its failure; eight find it
        f = baseline_t33_field(grid24)
        holds, min_val, (x, xi) = convexity.check_T33(f)
        assert not holds and min_val < -0.02
        pc_min, (pc_x, pc_xi) = convexity.check_pogorelov(f)[1:]
        assert pc_min == min_val
        assert np.array_equal(pc_x.coords, x.coords) and np.array_equal(pc_xi.dir, xi.dir)
        sampled, worst = t33_oracle(f, n_xi=8)
        assert not sampled and worst > 0.0

    def test_evaluates_no_point(self, grid24, monkeypatch):
        # the verdict reads f's kept grid Hessian: its one Legendre table is
        # at the Gauss nodes of f's grid, so no orbit and no point is read.
        # f moves to a fresh grid, which holds no table yet
        f = random_positive_field(grid24, np.random.default_rng(25), L_max=16)
        f = harmonics.SphericalField(grid=sphere.make_grid(24), values=f.values, coeffs=f.coeffs)
        nodes = []
        packed = harmonics._legendre_packed
        monkeypatch.setattr(harmonics, "_legendre_packed",
                            lambda t, *args: nodes.append(np.asarray(t)) or packed(t, *args))
        clear_program_caches()
        holds, min_val, _ = convexity.check_T33(f)
        assert holds == (min_val >= -1e-8 * np.max(np.abs(f.values)))
        assert nodes and all(np.array_equal(t, grid24.polar_nodes) for t in nodes)

    @pytest.mark.parametrize(
        "kind, k, delta",
        [("random", k, d) for k in range(3) for d in (-0.1, 0.1)]
        + [("sectoral", l, d) for l in range(2, 7) for d in (-1e-4, 1e-4)])
    def test_oracle_agrees(self, grid24, kind, k, delta):
        # each field lies delta past or short of the threshold, more than the
        # 2e-5 relative within which the two tolerance rules may differ.
        # The sectoral bumps take their minimum along a sampled direction;
        # on random fields the 16 sampled directions miss the minimizing one
        # by up to pi / 32, which lifts the sampled value by about 1e-2 of
        # the form's spread, so they lie 10% off the threshold
        if kind == "random":
            f = random_positive_field(grid24, np.random.default_rng(k), L_max=16)
        else:
            f = harmonic_field(grid24, 2.0, {(k, k): 1.0}, L_max=16)
        g = scaled_past_threshold(f, delta)
        holds = convexity.check_T33(g)[0]
        assert holds == (delta < 0)
        assert t33_oracle(g, n_t=48, n_xi=16)[0] == holds

    def test_tolerance_at_the_boundary(self, grid24):
        # T33 is the non-strict form: a minimum just below zero, within
        # 1e-8 max|f|, holds for T33 and fails for Pogorelov
        f = harmonic_field(grid24, 2.0, {(3, 3): 1.0}, L_max=16)
        for delta, t33 in ((1e-9, True), (1e-6, False)):
            g = scaled_past_threshold(f, delta)
            holds, min_val, _ = convexity.check_T33(g)
            assert min_val < 0.0 and holds == t33
            assert not convexity.check_pogorelov(g)[0]

    def test_oracle_difference_is_E_prime(self, grid24):
        # d_xi F(x + t xi) - d_xi F(x - t xi) = 2 cos^2(theta) E'(theta),
        # t = tan(theta), E = cos(theta) (g(theta) + g(-theta)) / 2
        f = random_positive_field(grid24, np.random.default_rng(26), amp=0.5, L_max=16)
        ts = np.geomspace(1e-3, 1e3, 7)
        angles = np.array([0.0, 0.9, 2.0])
        d = t33_differences(f, ts, angles)
        th = np.arctan(ts)
        for i in (0, 333, 600, grid24.node_count - 1):
            x = grid24.nodes[i]
            theta, phi = np.arccos(x[2]), np.arctan2(x[1], x[0])
            e_th = np.array([np.cos(theta) * np.cos(phi), np.cos(theta) * np.sin(phi), -np.sin(theta)])
            e_ph = np.array([-np.sin(phi), np.cos(phi), 0.0])
            for a, ang in enumerate(angles):
                xi = np.cos(ang) * e_th + np.sin(ang) * e_ph
                (p, dp), (q, dq) = great_circle(x, xi, th), great_circle(x, xi, -th)
                (gp, grad_p), (gq, grad_q) = (offgrid.values_and_gradient_at(f.coeffs, y)
                                              for y in (p, q))
                G, dG = 0.5 * (gp + gq), 0.5 * (np.sum(grad_p * dp, 1) - np.sum(grad_q * dq, 1))
                dE = np.cos(th) * dG - np.sin(th) * G
                assert np.max(np.abs(d[a, :, i] - 2 * np.cos(th) ** 2 * dE)) <= 1e-12 * np.max(f.values)

    def test_E_second_derivative_is_form(self, grid24):
        # E''(0) = Hess f(xi, xi) - f(x), read from the great-circle
        # polynomial g of degree <= L_max in theta: at the witness it is
        # minus the form's minimum
        f = random_positive_field(grid24, np.random.default_rng(27), amp=0.5, L_max=16)
        n = 2 * f.coeffs.L_max + 2
        k = np.fft.fftfreq(n, 1.0 / n)
        a, b, d = convexity._pogorelov_form(f)
        e1s, e2s = grid24.frame.e_th, grid24.frame.e_ph
        min_val, (x, xi) = convexity.check_T33(f)[1:]
        witness = int(np.argmin(np.linalg.norm(grid24.nodes - x.coords, axis=1)))
        rng = np.random.default_rng(28)
        cases = [(witness, xi.dir)] + [
            (i, np.cos(t) * e1s[i] + np.sin(t) * e2s[i])
            for i, t in zip(rng.integers(0, grid24.node_count, 6), rng.uniform(0, np.pi, 6))]
        forms = []
        for i, direction in cases:
            g = offgrid.synthesize_at(
                f.coeffs, great_circle(grid24.nodes[i], direction, 2 * np.pi * np.arange(n) / n)[0])
            E2 = float(np.real(np.sum(-k * k * np.fft.fft(g)) / n)) - f.values[i]
            v1, v2 = direction @ e1s[i], direction @ e2s[i]
            forms.append(a[i] * v1 * v1 + 2 * b[i] * v1 * v2 + d[i] * v2 * v2)
            assert abs(E2 + forms[-1]) <= 1e-11 * np.max(f.values)
        assert abs(forms[0] - min_val) <= 1e-12 * np.max(f.values)
