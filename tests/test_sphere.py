import numpy as np
import pytest

from christoffel import harmonics, sphere
from christoffel.errors import ResolutionTooLow

from conftest import constant_field


def geodesic_dist(x, z):
    """Spherical distance arccos<x, z>, clamped for floating-point safety."""
    dot = np.clip(np.sum(np.asarray(x, float) * np.asarray(z, float), axis=-1), -1.0, 1.0)
    return np.arccos(dot)


def ambient_directional_derivative_minus1(f, z, xi) -> float:
    """Directional derivative of the degree-(-1) homogeneous extension
    F(y) = f(y/|y|)/|y| at a sphere point z along an ambient unit vector xi
    (not necessarily tangent): <grad_S f(z), xi> - f(z) <xi, z>."""
    z, xi = np.asarray(z, float), np.asarray(xi, float)
    val, grad = harmonics.values_and_gradient_at(harmonics.require_coeffs(f), z[None, :])
    return float(grad[0] @ xi - val[0] * (xi @ z))


class TestPoints:
    def test_sphere_point_accepts_unit(self):
        p = sphere.SpherePoint(np.array([0.6, 0.8, 0.0]))
        assert np.allclose(p.coords, [0.6, 0.8, 0.0])

    def test_sphere_point_rejects_non_unit(self):
        with pytest.raises(ValueError):
            sphere.SpherePoint(np.array([1.0, 1.0, 0.0]))

    def test_tangent_direction_rejects_non_tangent(self):
        base = sphere.SpherePoint(np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            sphere.TangentDirection(base, np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            sphere.TangentDirection(base, np.array([0.5, 0.0, 0.0]))


class TestGrid:
    def test_l4_node_count_and_weights(self):
        g = sphere.make_grid(4)
        assert g.node_count == 32
        assert abs(g.weights.sum() - 4.0 * np.pi) < 1e-10

    def test_one_legendre_rule_per_resolution(self, monkeypatch):
        calls = []
        leggauss = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda L: calls.append(L) or leggauss(L))
        sphere._polar_rule.cache_clear()
        harmonics._grid_blocks.cache_clear()
        try:
            grids = [sphere.make_grid(20) for _ in range(2)]
            for L_max, nderiv in ((12, 0), (12, 2), (19, 1)):
                harmonics._grid_blocks(20, L_max, nderiv)
        finally:
            sphere._polar_rule.cache_clear()
            harmonics._grid_blocks.cache_clear()
        assert calls == [20]
        # each grid owns writable copies of the shared read-only rule
        t, wt = np.polynomial.legendre.leggauss(20)
        for g in grids:
            assert np.array_equal(g.polar_nodes, t[::-1])
            assert np.array_equal(g.polar_weights, wt[::-1])
            assert g.polar_nodes.flags.writeable and g.polar_weights.flags.writeable
        assert grids[0].polar_nodes is not grids[1].polar_nodes

    def test_resolution_gate(self):
        with pytest.raises(ResolutionTooLow):
            sphere.make_grid(3)

    def test_constant_integral(self, grid16):
        assert abs(grid16.integrate(np.ones(grid16.node_count)) - 4 * np.pi) < 1e-12

    def test_second_moment(self, grid16):
        # int z3^2 over the sphere = 4 pi / 3
        val = grid16.integrate(grid16.nodes[:, 2] ** 2)
        assert abs(val - 4.0 * np.pi / 3.0) < 1e-10

    def test_no_poles_among_nodes(self, grid16):
        assert np.max(np.abs(grid16.nodes[:, 2])) < 1.0

    def test_node_frame(self, grid16):
        # (e_theta, e_phi, x) is a right-handed orthonormal frame at every
        # node, formed once per grid and read-only
        frame = grid16.frame
        assert grid16.frame is frame
        x = grid16.nodes
        assert np.max(np.abs(np.cross(frame.e_th, frame.e_ph) - x)) <= 1e-15
        for e in (frame.e_th, frame.e_ph):
            assert np.max(np.abs(np.sum(e * x, axis=1))) <= 1e-15
            assert np.max(np.abs(np.linalg.norm(e, axis=1) - 1.0)) <= 1e-15
        assert np.max(np.abs(frame.sin - np.hypot(x[:, 0], x[:, 1]))) <= 1e-15
        assert np.max(np.abs(frame.cos - x[:, 2])) <= 1e-15
        for arr in frame:
            assert not arr.flags.writeable

    def test_harmonic_exactness_up_to_2L_minus_1(self):
        # quadrature integrates all Y_l^m with l <= 2L-1 exactly
        L = 6
        g = sphere.make_grid(L)
        for l in range(1, 2 * L):
            for m in range(-l, l + 1):
                c = np.zeros((2 * L) ** 2)
                c[harmonics.HarmonicCoeffs.index(l, m)] = 1.0
                vals = harmonics.synthesize(
                    harmonics.HarmonicCoeffs(L_max=2 * L - 1, c=c), g
                ).values
                assert abs(g.integrate(vals)) < 1e-10, (l, m)


class TestGeodesic:
    def test_coincident(self):
        x = np.array([0.0, 0.0, 1.0])
        assert geodesic_dist(x, x) == 0.0

    def test_antipodal(self):
        x = np.array([0.0, 0.0, 1.0])
        assert abs(geodesic_dist(x, -x) - np.pi) < 1e-15

    def test_orthogonal(self):
        assert abs(geodesic_dist([1, 0, 0], [0, 1, 0]) - np.pi / 2) < 1e-15

    def test_metric_properties_on_random_triples(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((30, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        for i in range(0, 30, 3):
            a, b, c = pts[i], pts[i + 1], pts[i + 2]
            dab = geodesic_dist(a, b)
            assert dab == geodesic_dist(b, a)
            assert dab <= geodesic_dist(a, c) + geodesic_dist(c, b) + 1e-12


class TestTangentBasis:
    def test_axis_case(self):
        e1, e2 = (e[0] for e in sphere.tangent_bases(np.array([[0.0, 0.0, 1.0]])))
        assert np.allclose(e1, [1, 0, 0])
        assert np.allclose(e2, [0, 1, 0])

    def test_x_axis_case(self):
        e1, e2 = (e[0] for e in sphere.tangent_bases(np.array([[1.0, 0.0, 0.0]])))
        # orthonormal pair spanning the y-z plane
        assert abs(e1[0]) < 1e-15 and abs(e2[0]) < 1e-15
        assert abs(e1 @ e2) < 1e-15

    def test_orthonormality_random(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((50, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        e1, e2 = sphere.tangent_bases(pts)
        for i in range(50):
            for v in (e1[i], e2[i]):
                assert abs(np.linalg.norm(v) - 1) < 1e-12
                assert abs(v @ pts[i]) < 1e-12
            assert abs(e1[i] @ e2[i]) < 1e-12


class TestMinus1Derivative:
    def test_constant_radial(self, grid16):
        # extension c/|y|: derivative along xi is -c <xi, z>
        f = constant_field(grid16, 3.0, L_max=8)
        z = grid16.nodes[37]
        xi = np.array([0.0, 0.0, 1.0])
        val = ambient_directional_derivative_minus1(f, z, xi)
        assert abs(val - (-3.0 * (xi @ z))) < 1e-12

    def test_constant_tangent_direction(self, grid16):
        f = constant_field(grid16, 3.0, L_max=8)
        z = grid16.nodes[100]
        e1 = sphere.tangent_bases(z[None])[0][0]
        assert abs(ambient_directional_derivative_minus1(f, z, e1)) < 1e-12

    def test_finite_difference_oracle(self, grid16):
        # central differences of f(y/|y|)/|y| in ambient space
        rng = np.random.default_rng(5)
        c = rng.standard_normal(81) * 0.1
        c[0] += 3.0 * np.sqrt(4 * np.pi)
        coeffs = harmonics.HarmonicCoeffs(L_max=8, c=c)
        f = harmonics.synthesize(coeffs, grid16)

        def extension(y):
            r = np.linalg.norm(y)
            return harmonics.synthesize_at(coeffs, (y / r)[None, :])[0] / r

        h = 1e-5
        for idx in (11, 205, 388):
            z = grid16.nodes[idx]
            xi = rng.standard_normal(3)
            xi /= np.linalg.norm(xi)
            fd = (extension(z + h * xi) - extension(z - h * xi)) / (2 * h)
            val = ambient_directional_derivative_minus1(f, z, xi)
            assert abs(val - fd) < 1e-6
