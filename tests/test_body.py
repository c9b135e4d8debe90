import dataclasses

import numpy as np
import pytest

from christoffel import body, harmonics, sphere
from christoffel.errors import InvalidParameter

from conftest import (
    Sphere,
    ellipsoid_forward_f,
    ellipsoid_principal_radii,
    harmonic_field,
    principal_radii,
    ref_obj_text,
)

import offgrid


def loop_embed_faces(u):
    """Reference triangulation: the quad loop that embed vectorises."""
    grid = u.grid
    verts = harmonics.grid_gradient(u) + u.values[:, None] * grid.nodes
    n_phi, L = grid.azimuth_count, grid.L
    faces = []
    idx = lambda i, j: i * n_phi + (j % n_phi)
    for i in range(L - 1):
        for j in range(n_phi):
            a, b = idx(i, j), idx(i + 1, j)
            c, d = idx(i + 1, j + 1), idx(i, j + 1)
            (x1, y1, z1), (x2, y2, z2) = (verts[a] - verts[c]).tolist(), (verts[b] - verts[d]).tolist()
            ac, bd = x1 * x1 + y1 * y1 + z1 * z1, x2 * x2 + y2 * y2 + z2 * z2
            if ac <= bd * (1.0 + 1e-12):
                faces.append((a, b, c))
                faces.append((a, c, d))
            else:
                faces.append((b, c, d))
                faces.append((b, d, a))
    ni, si = len(verts), len(verts) + 1
    for j in range(n_phi):
        faces.append((ni, idx(0, j), idx(0, j + 1)))
        faces.append((si, idx(L - 1, j + 1), idx(L - 1, j)))
    return np.asarray(faces, dtype=int)


# a ball, where every quad's diagonals tie by symmetry, and two ellipsoids
MESH_BODIES = [Sphere(1.0), body.Ellipsoid(1.0, 1.2, 1.5), body.Ellipsoid(0.5, 1.0, 2.0)]


@pytest.fixture(scope="module", params=[
    (L, b) for L in (16, 17, 48) for b in MESH_BODIES
], ids=lambda p: f"L{p[0]}-{p[1]}")
def mesh_u(request):
    L, b = request.param
    return body.support_function(b, sphere.make_grid(L), L_max=2 * L // 3)


@pytest.fixture(scope="module")
def ellipsoid():
    return body.Ellipsoid(1.0, 1.2, 0.8)


@pytest.fixture(scope="module")
def ellipsoid_u(grid48, ellipsoid):
    return body.support_function(ellipsoid, grid48, L_max=32)


class TestSupport:
    def test_sphere(self, grid16):
        u = body.support_function(Sphere(1.0), grid16, L_max=8)
        assert np.max(np.abs(u.values - 1.0)) < 1e-14

    def test_degenerate_ellipsoid_is_sphere(self, grid16):
        u = body.support_function(body.Ellipsoid(1.0, 1.0, 1.0), grid16, L_max=8)
        assert np.max(np.abs(u.values - 1.0)) < 1e-12

    def test_ellipsoid_axis_value(self, ellipsoid):
        assert abs(ellipsoid.support_values(np.array([[0.0, 1.0, 0.0]]))[0] - 1.2) < 1e-15

    def test_parameter_gates(self):
        for axes in ((1.0, -1.0, 1.0), (np.nan, 1.0, 1.0), (1.0, 1.0, 1e200), (1e-170, 1.0, 1.0)):
            with pytest.raises(InvalidParameter):
                body.Ellipsoid(*axes)
        with pytest.raises(InvalidParameter):
            body.HarmonicBump(l=2, m=3, eps=0.1, base=2.0)


class TestForward:
    def test_unit_sphere(self, grid16):
        u = body.support_function(Sphere(1.0), grid16, L_max=8)
        f = body.forward_f(u)
        assert np.max(np.abs(f.values - 2.0)) < 1e-12

    def test_single_mode(self, grid16):
        eps = 0.25
        u = harmonic_field(grid16, 1.0, {(2, 0): eps}, L_max=8)
        f = body.forward_f(u)
        expected = harmonic_field(grid16, 2.0, {(2, 0): -4 * eps}, L_max=8)
        assert np.max(np.abs(f.values - expected.values)) < 1e-12

    def test_ellipsoid_analytic(self, grid48, ellipsoid, ellipsoid_u):
        f = body.forward_f(ellipsoid_u)
        analytic = ellipsoid_forward_f(ellipsoid, grid48.nodes)
        assert np.max(np.abs(f.values - analytic)) < 1e-6


class TestEmbed:
    def test_ball_radius(self, grid16):
        u = body.support_function(Sphere(1.7), grid16, L_max=8)
        mesh = body.embed(u)
        radii = np.linalg.norm(mesh.vertices[: grid16.node_count], axis=1)
        assert np.max(np.abs(radii - 1.7)) < 1e-12

    def test_translated_ball(self, grid16):
        v = np.array([0.2, -0.1, 0.3])
        k = np.sqrt(4 * np.pi / 3)
        u = harmonic_field(
            grid16, 1.0, {(1, 1): v[0] * k, (1, -1): v[1] * k, (1, 0): v[2] * k}, L_max=8
        )
        mesh = body.embed(u)
        expected = grid16.nodes + v
        assert np.max(
            np.linalg.norm(mesh.vertices[: grid16.node_count] - expected, axis=1)
        ) < 1e-12

    def test_ellipsoid_on_surface(self, grid48, ellipsoid, ellipsoid_u):
        mesh = body.embed(ellipsoid_u)
        P = mesh.vertices[: grid48.node_count]
        A = ellipsoid.axes_sq
        implicit = P[:, 0] ** 2 / A[0] + P[:, 1] ** 2 / A[1] + P[:, 2] ** 2 / A[2]
        assert np.max(np.abs(implicit - 1.0)) < 1e-6

    def test_faces_and_normals(self, grid16):
        u = body.support_function(Sphere(1.0), grid16, L_max=8)
        mesh = body.embed(u)
        assert mesh.node_vertex_count == grid16.node_count
        assert mesh.vertices.shape[0] == grid16.node_count + 2
        assert mesh.normals.shape == mesh.vertices.shape
        assert mesh.faces.min() >= 0 and mesh.faces.max() < len(mesh.vertices)
        # convex body: all faces oriented outward
        V, F = mesh.vertices, mesh.faces
        cross = np.cross(V[F[:, 1]] - V[F[:, 0]], V[F[:, 2]] - V[F[:, 0]])
        centroid = (V[F[:, 0]] + V[F[:, 1]] + V[F[:, 2]]) / 3.0
        assert np.all(np.sum(cross * centroid, axis=1) > 0)

    def test_watertight_edge_count(self, grid16):
        # closed 2-manifold: every edge shared by exactly two faces
        u = body.support_function(Sphere(1.0), grid16, L_max=8)
        mesh = body.embed(u)
        edges = {}
        for tri in mesh.faces:
            for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                key = (min(a, b), max(a, b))
                edges[key] = edges.get(key, 0) + 1
        assert set(edges.values()) == {2}


class TestPrincipalRadii:
    def test_ball(self, grid16):
        u = body.support_function(Sphere(2.5), grid16, L_max=8)
        r1, r2 = principal_radii(u, grid16.nodes[12])
        assert abs(r1 - 2.5) < 1e-10 and abs(r2 - 2.5) < 1e-10

    def test_ellipsoid_axis_points(self, ellipsoid, ellipsoid_u):
        a, b, c = ellipsoid.a, ellipsoid.b, ellipsoid.c
        cases = {
            (1.0, 0.0, 0.0): sorted((b * b / a, c * c / a)),
            (0.0, 1.0, 0.0): sorted((a * a / b, c * c / b)),
            (0.0, 0.0, 1.0): sorted((a * a / c, b * b / c)),
        }
        for x, expected in cases.items():
            for sign in (1.0, -1.0):
                r = principal_radii(ellipsoid_u, sign * np.array(x))
                assert abs(r[0] - expected[0]) < 1e-6
                assert abs(r[1] - expected[1]) < 1e-6

    def test_analytic_oracle_general_points(self, grid48, ellipsoid, ellipsoid_u):
        for idx in (100, 1111, 3000):
            x = grid48.nodes[idx]
            r = principal_radii(ellipsoid_u, x)
            ra = ellipsoid_principal_radii(ellipsoid, x)
            assert abs(r[0] - ra[0]) < 1e-6 and abs(r[1] - ra[1]) < 1e-6

    def test_trace_identity(self, grid48, ellipsoid_u):
        f = body.forward_f(ellipsoid_u)
        for idx in range(0, grid48.node_count, 977):
            r1, r2 = principal_radii(ellipsoid_u, grid48.nodes[idx])
            assert abs(r1 + r2 - f.values[idx]) < 1e-8


class TestRoundTrip:
    def test_sphere_and_ellipsoid(self, grid48, ellipsoid, ellipsoid_u):
        for u_exact in (
            body.support_function(Sphere(1.3), grid48, L_max=32),
            ellipsoid_u,
        ):
            f = body.forward_f(u_exact)
            u = harmonics.solve_christoffel(f).u
            # degree-1 alignment: both ellipsoid and sphere are centered, and
            # the solver zeroes the degree-1 part, so compare directly
            mesh = body.embed(u)
            mesh_exact = body.embed(u_exact)
            err = np.linalg.norm(
                mesh.vertices[: grid48.node_count]
                - mesh_exact.vertices[: grid48.node_count],
                axis=1,
            )
            assert np.max(err) < 1e-5

    def test_translated_body_alignment(self, grid24):
        # translation lives in the degree-1 coefficients; aligning them
        # reproduces the off-center body exactly
        v = np.array([0.15, 0.0, -0.2])
        k = np.sqrt(4 * np.pi / 3)
        u_exact = harmonic_field(
            grid24, 1.0,
            {(2, 0): 0.1, (1, 1): v[0] * k, (1, -1): v[1] * k, (1, 0): v[2] * k},
            L_max=12,
        )
        f = body.forward_f(u_exact)
        u = harmonics.solve_christoffel(f, project=True).u
        aligned = harmonics.HarmonicCoeffs(
            L_max=12, c=u.coeffs.c + (u_exact.coeffs.c - u.coeffs.c) * 0.0
        )
        c = u.coeffs.c.copy()
        c[1:4] = u_exact.coeffs.c[1:4]
        aligned = harmonics.synthesize(harmonics.HarmonicCoeffs(L_max=12, c=c), grid24)
        assert np.max(np.abs(aligned.values - u_exact.values)) < 1e-10


def random_support(L, L_max, seed):
    """u = 3 + a random expansion with every order, so Du(+-e_z) has
    nonzero tangential parts of both parities."""
    rng = np.random.default_rng(seed)
    c = 0.3 * rng.standard_normal((L_max + 1) ** 2) / (1.0 + np.arange((L_max + 1) ** 2))
    c[0] = 3.0 * np.sqrt(4.0 * np.pi)
    return harmonics.synthesize(harmonics.HarmonicCoeffs(L_max=L_max, c=c), sphere.make_grid(L))


class TestPoleApices:
    @staticmethod
    def assert_apices_are_du(u):
        # the fan apices are the boundary points Du(+-e_z), as the extension
        # channels give them
        poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        vals, grad = offgrid.values_and_gradient_at(u.coeffs, poles)
        du = grad + vals[:, None] * poles
        mesh = body.embed(u)
        scale = np.max(np.abs(mesh.vertices[: mesh.node_vertex_count]))
        assert np.max(np.abs(mesh.vertices[-2:] - du)) <= 1e-12 * scale

    def test_apices_are_du_at_the_poles(self, mesh_u):
        self.assert_apices_are_du(mesh_u)

    @pytest.mark.parametrize("L, L_max", [(16, 15), (17, 11), (48, 32)])
    def test_apices_of_asymmetric_bodies(self, L, L_max):
        self.assert_apices_are_du(random_support(L, L_max, seed=L))

    def test_ellipsoid_apices_on_surface(self, ellipsoid, ellipsoid_u):
        apices = body.embed(ellipsoid_u).vertices[-2:]
        assert np.max(np.abs(apices - [[0.0, 0.0, ellipsoid.c], [0.0, 0.0, -ellipsoid.c]])) < 1e-6


class TestLoopReference:
    def test_faces_match_loop(self, mesh_u):
        faces = body.embed(mesh_u).faces
        ref = loop_embed_faces(mesh_u)
        assert faces.dtype == ref.dtype and np.array_equal(faces, ref)

    @pytest.mark.parametrize("L, L_max", [(16, 10), (48, 32)])
    def test_faces_ignore_rounding_of_u(self, L, L_max):
        # the two diagonals of the equatorial quads of a symmetric body tie:
        # a u whose coefficients come again from its own synthesized values,
        # equal up to rounding, keeps every face
        grid = sphere.make_grid(L)
        coeffs = body.support_function(body.Ellipsoid(1.0, 1.2, 1.5), grid, L_max).coeffs
        u = harmonics.synthesize(coeffs, grid)
        again = harmonics.synthesize(harmonics.analyze(grid, u.values, L_max), grid)
        assert not np.array_equal(again.coeffs.c, coeffs.c)
        assert np.max(np.abs(again.values - u.values)) <= 1e-11 * np.max(u.values)
        assert np.array_equal(body.embed(again).faces, body.embed(u).faces)

    def test_obj_bytes_match_loop(self, mesh_u, tmp_path):
        mesh = body.embed(mesh_u)
        path = tmp_path / "body.obj"
        body.write_obj(mesh, path)
        assert path.read_bytes() == ref_obj_text(mesh).encode("utf-8")

    @pytest.mark.parametrize("rows", [1, 7, 10**6])
    def test_obj_independent_of_block_size(self, grid16, rows, tmp_path, monkeypatch):
        mesh = body.embed(body.support_function(body.Ellipsoid(1.0, 1.2, 1.5), grid16, 10))
        default = tmp_path / "default.obj"
        body.write_obj(mesh, default)
        monkeypatch.setattr(body, "_OBJ_BLOCK_ROWS", rows)
        path = tmp_path / f"rows{rows}.obj"
        body.write_obj(mesh, path)
        assert path.read_bytes() == default.read_bytes()


def signed_zero_mesh(L):
    """Mesh of an ellipsoid on grid L with 0.0 and -0.0 planted among the
    coordinates of its first vertices and normals."""
    u = body.support_function(body.Ellipsoid(1.0, 1.2, 1.5), sphere.make_grid(L), 2 * L // 3)
    mesh = body.embed(u)
    vertices, normals = mesh.vertices.copy(), mesh.normals.copy()
    vertices[:3] = [[0.0, -0.0, 1.0], [-0.0, 0.0, -0.0], [0.0, 0.0, 0.0]]
    normals[:2] = [[-0.0, 0.0, 1.0], [0.0, -0.0, -1.0]]
    return dataclasses.replace(mesh, vertices=vertices, normals=normals)


class TestObj:
    @pytest.mark.parametrize("rows", [4096, 1, 7, 10**6])
    @pytest.mark.parametrize("L", [16, 17])
    def test_signed_zeros_match_reference(self, L, rows, tmp_path, monkeypatch):
        # each distinct bit pattern of the normals is formatted once, so
        # -0.0 and 0.0 must stay apart; odd L puts z = 0.0 on the equator
        mesh = signed_zero_mesh(L)
        for a in (mesh.vertices, mesh.normals):
            zero = a == 0.0
            assert np.any(zero & np.signbit(a)) and np.any(zero & ~np.signbit(a))
        assert np.any(mesh.normals[: mesh.node_vertex_count, 2] == 0.0) == (L % 2 == 1)
        monkeypatch.setattr(body, "_OBJ_BLOCK_ROWS", rows)
        path = tmp_path / "body.obj"
        body.write_obj(mesh, path)
        assert path.read_bytes() == ref_obj_text(mesh).encode("utf-8")

    @pytest.mark.parametrize("L", [16, 17])
    def test_normals_read_back_bit_exact(self, L, tmp_path):
        mesh = signed_zero_mesh(L)
        path = tmp_path / "body.obj"
        body.write_obj(mesh, path)
        vn = np.array([[float(x) for x in ln.split()[1:]]
                       for ln in path.read_text().splitlines() if ln.startswith("vn ")])
        assert np.array_equal(vn.view(np.int64), mesh.normals.view(np.int64))

    def test_format(self, grid16, tmp_path):
        u = body.support_function(Sphere(1.0), grid16, L_max=8)
        mesh = body.embed(u)
        path = tmp_path / "ball.obj"
        body.write_obj(mesh, path)
        lines = path.read_text().splitlines()
        n_v = sum(1 for ln in lines if ln.startswith("v "))
        n_vn = sum(1 for ln in lines if ln.startswith("vn "))
        n_f = sum(1 for ln in lines if ln.startswith("f "))
        assert n_v == len(mesh.vertices) and n_vn == len(mesh.normals)
        assert n_f == len(mesh.faces)
        first_v = lines[0].split()
        assert first_v[0] == "v" and len(first_v) == 4
        float(first_v[1])  # parses as a number
        face = next(ln for ln in lines if ln.startswith("f ")).split()
        idx = [int(p) for p in face[1:]]
        assert min(idx) >= 1 and max(idx) <= len(mesh.vertices)
