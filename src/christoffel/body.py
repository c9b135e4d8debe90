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
from .sphere import SphereGrid, point_coords, tangent_bases


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
    plus two pole vertices closing the polar fans; those are the boundary
    points Du(+-e_z) and carry the +-z normals.

    Faces come two per grid quad, quads in (ring, azimuth) order, then one
    (north, south) pair of fan triangles per azimuth.  Quad (i, j) with
    corners a = (i, j), b = (i+1, j), c = (i+1, j+1), d = (i, j+1) is
    split along its shorter diagonal: (a, b, c), (a, c, d) when |a - c|^2 <=
    |b - d|^2, each squared length summed as dx*dx + dy*dy + dz*dz, so a tie
    goes to the a-c diagonal, else (b, c, d), (b, d, a).
    :func:`write_obj` writes every float as its shortest round-trip repr.
    """

    vertices: np.ndarray   # (N + 2, 3)
    faces: np.ndarray      # (F, 3) int, valid indices
    normals: np.ndarray    # (N + 2, 3)
    node_vertex_count: int


def embed(u: harmonics.SphericalField) -> SurfaceMesh:
    """Boundary surface M = {Du(x)}, Du = grad_S u + u x, triangulated.

    Grid quads are split along the shorter diagonal; the polar gaps are
    closed with triangle fans to the apices Du(+-e_z)
    (:func:`_pole_apices`).  Face order is described in
    :class:`SurfaceMesh`.
    """
    grid = u.grid
    verts = u.gradient + u.values[:, None] * grid.nodes
    n_phi = grid.azimuth_count
    L = grid.L

    vertices = np.vstack([verts, _pole_apices(harmonics.require_coeffs(u))])
    normals = np.vstack([grid.nodes, [[0.0, 0.0, 1.0]], [[0.0, 0.0, -1.0]]])

    # corners a, b, c, d of every quad, as in SurfaceMesh, azimuth wrapping
    j0 = np.arange(n_phi)
    j1 = np.roll(j0, -1)
    start = np.arange(L - 1)[:, None] * n_phi
    a, d = (start + j0).ravel(), (start + j1).ravel()
    b, c = a + n_phi, d + n_phi
    # squared lengths in elementwise ufuncs: no BLAS summation order decides a tie
    ac, bd = (verts[a] - verts[c]).T, (verts[b] - verts[d]).T
    short_ac = (ac[0] * ac[0] + ac[1] * ac[1] + ac[2] * ac[2]
                <= bd[0] * bd[0] + bd[1] * bd[1] + bd[2] * bd[2])[:, None]
    quads = np.stack([
        np.where(short_ac, np.stack([a, b, c], 1), np.stack([b, c, d], 1)),
        np.where(short_ac, np.stack([a, c, d], 1), np.stack([b, d, a], 1)),
    ], axis=1)
    last = (L - 1) * n_phi
    fans = np.stack([
        np.stack([np.full(n_phi, len(verts)), j0, j1], 1),
        np.stack([np.full(n_phi, len(verts) + 1), last + j1, last + j0], 1),
    ], axis=1)
    return SurfaceMesh(
        vertices=vertices,
        faces=np.concatenate([quads.reshape(-1, 3), fans.reshape(-1, 3)]),
        normals=normals,
        node_vertex_count=grid.node_count,
    )


def _pole_apices(coeffs: harmonics.HarmonicCoeffs) -> np.ndarray:
    """Du(e_z) and Du(-e_z), shape (2, 3), from the orders m = 0 and +-1.

    At the poles Y_l^0 is sqrt((2l + 1) / 4 pi) (+-1)^l, and only Y_l^1 and
    Y_l^-1 have a gradient there: sqrt((2l + 1) l (l + 1) / 8 pi) e_x
    resp. e_y at e_z, times (-1)^(l+1) at -e_z, since the normalized
    P_l^m(-t) is (-1)^(l+m) P_l^m(t).  Du = grad u + u x.
    """
    c = coeffs.c
    l = np.arange(coeffs.L_max + 1)
    parity = np.stack([np.ones(len(l)), (-1.0) ** l])  # rows e_z, -e_z
    value = parity @ (np.sqrt((2 * l + 1) / (4 * np.pi)) * c[l * l + l])
    l = l[1:]
    slope = np.sqrt((2 * l + 1) * l * (l + 1) / (8 * np.pi))
    grad = (parity[:, 1:] * [[1.0], [-1.0]]) @ (
        slope[:, None] * c[np.stack([l * l + l + 1, l * l + l - 1], axis=1)])
    return np.column_stack([grad, value * [1.0, -1.0]])


def principal_radii(u: harmonics.SphericalField, x):
    """Principal curvature radii at normal direction x: the eigenvalues of
    D^2 U(x) on the tangent plane (U the 1-homogeneous extension of u),
    which are those of Hess u(x) + u(x) I, returned sorted ascending."""
    xc = point_coords(x)
    E = np.stack(tangent_bases(xc[None]), axis=2)[0]
    D2U = harmonics.extension_hessian_at(harmonics.require_coeffs(u), xc[None, :])[0]
    r = np.linalg.eigvalsh(E.T @ D2U @ E)
    return float(r[0]), float(r[1])


_OBJ_BLOCK_ROWS = 4096


def write_obj(mesh: SurfaceMesh, path):
    """Wavefront OBJ: v lines, vn lines in vertex order, 1-based f lines,
    streamed to ``path`` with one format per block of rows."""
    with open(path, "w", encoding="utf-8") as fh:
        for line, rows in (("v %r %r %r\n", mesh.vertices),
                           ("vn %r %r %r\n", mesh.normals),
                           ("f %d %d %d\n", mesh.faces + 1)):
            for k in range(0, len(rows), _OBJ_BLOCK_ROWS):
                block = rows[k : k + _OBJ_BLOCK_ROWS]
                fh.write(line * len(block) % tuple(block.ravel().tolist()))
