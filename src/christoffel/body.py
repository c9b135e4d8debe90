"""Forward and inverse geometry of convex bodies in R^3.

Generates curvature data f from analytic bodies, recovers the boundary
surface {Du(x) : x in S^2} from a support function, computes principal
curvature radii, and exports watertight triangle meshes in Wavefront OBJ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import harmonics
from .errors import InvalidParameter
from .sphere import SphereGrid, point_coords, tangent_basis


@dataclass(frozen=True)
class Sphere:
    """Ball of radius R; support function u = R."""

    R: float

    def __post_init__(self):
        if self.R <= 0:
            raise InvalidParameter("sphere radius must be positive")

    def support_values(self, points):
        return np.full(len(points), float(self.R))


@dataclass(frozen=True)
class Ellipsoid:
    """Solid ellipsoid with semi-axes (a, b, c); u = sqrt(a^2 x1^2 + ...)."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if min(self.a, self.b, self.c) <= 0:
            raise InvalidParameter("ellipsoid semi-axes must be positive")

    @property
    def axes_sq(self):
        return np.array([self.a**2, self.b**2, self.c**2])

    def support_values(self, points):
        pts = np.asarray(points, dtype=float)
        return np.sqrt(pts**2 @ self.axes_sq)


@dataclass(frozen=True)
class HarmonicBump:
    """Support-function candidate base + eps * Y_l^m.

    Convex only for small eps; larger eps builds non-convex test cases.
    """

    l: int
    m: int
    eps: float
    base: float

    def __post_init__(self):
        if self.l < 0 or abs(self.m) > self.l:
            raise InvalidParameter("harmonic bump needs 0 <= |m| <= l")

    def coeffs(self, L_max: int) -> harmonics.HarmonicCoeffs:
        if L_max < self.l:
            raise InvalidParameter(f"band limit {L_max} below bump degree {self.l}")
        c = np.zeros((L_max + 1) ** 2)
        c[0] = self.base * np.sqrt(4.0 * np.pi)
        c[harmonics.HarmonicCoeffs.index(self.l, self.m)] += self.eps
        return harmonics.HarmonicCoeffs(L_max=L_max, c=c)


AnalyticBody = Sphere | Ellipsoid | HarmonicBump


def support_function(body: AnalyticBody, grid: SphereGrid,
                     L_max: int | None = None) -> harmonics.SphericalField:
    """Sample the support function of an analytic body on a grid (analyzed)."""
    if isinstance(body, HarmonicBump):
        if L_max is None:
            L_max = max(min(harmonics.DEFAULT_L_MAX, grid.L - 1), body.l)
        return harmonics.synthesize(body.coeffs(L_max), grid)
    return harmonics.field_from_function(grid, body.support_values, L_max)


def forward_f(u: harmonics.SphericalField) -> harmonics.SphericalField:
    """f = (Laplacian + 2) u, applied spectrally.

    When u is a support function this is the sum of the two principal
    curvature radii at the point with outward normal x.
    """
    return harmonics.synthesize(harmonics.require_coeffs(u).apply_operator(), u.grid)


@dataclass(frozen=True)
class SurfaceMesh:
    """Triangle mesh of a body boundary.

    One vertex per grid node (Du at that node, normal = the node itself),
    plus two pole vertices closing the polar fans; those sit at the mean of
    the adjacent ring and carry the +-z normals.
    """

    vertices: np.ndarray   # (N + 2, 3)
    faces: np.ndarray      # (F, 3) int, valid indices
    normals: np.ndarray    # (N + 2, 3)
    node_vertex_count: int


def embed(u: harmonics.SphericalField) -> SurfaceMesh:
    """Boundary surface M = {Du(x)}, Du = grad_S u + u x, triangulated.

    Grid quads are split along the shorter diagonal; the polar gaps are
    closed with triangle fans to the mean of the adjacent ring.
    """
    grid = u.grid
    grad = harmonics.grid_gradient(u)
    verts = grad + u.values[:, None] * grid.nodes
    n_phi = grid.azimuth_count
    L = grid.L

    north = verts[:n_phi].mean(axis=0)
    south = verts[-n_phi:].mean(axis=0)
    vertices = np.vstack([verts, north[None, :], south[None, :]])
    normals = np.vstack([grid.nodes, [[0.0, 0.0, 1.0]], [[0.0, 0.0, -1.0]]])

    faces = []
    idx = lambda i, j: i * n_phi + (j % n_phi)
    for i in range(L - 1):
        for j in range(n_phi):
            a, b = idx(i, j), idx(i + 1, j)
            c, d = idx(i + 1, j + 1), idx(i, j + 1)
            if np.linalg.norm(verts[a] - verts[c]) <= np.linalg.norm(verts[b] - verts[d]):
                faces.append((a, b, c))
                faces.append((a, c, d))
            else:
                faces.append((b, c, d))
                faces.append((b, d, a))
    ni, si = len(verts), len(verts) + 1
    for j in range(n_phi):
        faces.append((ni, idx(0, j), idx(0, j + 1)))
        faces.append((si, idx(L - 1, j + 1), idx(L - 1, j)))
    return SurfaceMesh(
        vertices=vertices,
        faces=np.asarray(faces, dtype=int),
        normals=normals,
        node_vertex_count=grid.node_count,
    )


def principal_radii(u: harmonics.SphericalField, x):
    """Principal curvature radii at normal direction x: the eigenvalues of
    Hess_S u(x) + u(x) I, returned sorted ascending."""
    coeffs = harmonics.require_coeffs(u)
    xc = point_coords(x)
    H = harmonics.sphere_hessian(coeffs, xc)
    val = float(harmonics.synthesize_at(coeffs, xc[None, :])[0])
    r = np.linalg.eigvalsh(H + val * np.eye(2))
    return float(r[0]), float(r[1])


def obj_text(mesh: SurfaceMesh) -> str:
    """Wavefront OBJ: v lines, vn lines in vertex order, 1-based f lines."""
    lines = []
    for v in mesh.vertices:
        lines.append(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}")
    for n in mesh.normals:
        lines.append(f"vn {float(n[0])!r} {float(n[1])!r} {float(n[2])!r}")
    for f in mesh.faces:
        lines.append(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}")
    return "\n".join(lines) + "\n"


def write_obj(mesh: SurfaceMesh, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(obj_text(mesh))


# ----------------------------------------------------------------------
# Analytic ellipsoid oracles
# ----------------------------------------------------------------------

def ellipsoid_ambient_hessian(body: Ellipsoid, x) -> np.ndarray:
    """Ambient Hessian of the 1-homogeneous support function at |x| = 1:
    diag(a^2)/h - (a^2 x)(a^2 x)^T / h^3."""
    xc = point_coords(x)
    A = body.axes_sq
    h = float(np.sqrt(xc**2 @ A))
    v = A * xc
    return np.diag(A) / h - np.outer(v, v) / h**3


def ellipsoid_forward_f(body: Ellipsoid, points) -> np.ndarray:
    """Analytic sum of principal radii: (a^2+b^2+c^2)/h - sum a_i^4 x_i^2 / h^3."""
    pts = np.asarray(points, dtype=float)
    A = body.axes_sq
    h = np.sqrt(pts**2 @ A)
    return A.sum() / h - (pts**2 @ A**2) / h**3


def ellipsoid_principal_radii(body: Ellipsoid, x):
    """Analytic principal radii: eigenvalues of the tangent-restricted
    ambient Hessian of the support function."""
    xc = point_coords(x)
    H = ellipsoid_ambient_hessian(body, xc)
    e1, e2 = tangent_basis(xc)
    E = np.stack([e1, e2], axis=1)
    r = np.linalg.eigvalsh(E.T @ H @ E)
    return float(r[0]), float(r[1])
