"""Forward and inverse geometry of convex bodies in R^3.

Generates curvature data f from analytic bodies, recovers the boundary
surface {Du(x) : x in S^2} from a support function, and exports watertight
triangle meshes in Wavefront OBJ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import harmonics
from .errors import InvalidParameter
from .sphere import SphereGrid


@dataclass(frozen=True)
class Ellipsoid:
    """Solid ellipsoid with semi-axes (a, b, c); u = sqrt(a^2 x1^2 + ...)."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        # the support function sums the squares: each must be positive and finite
        if not all(0.0 < v and 0.0 < v * v < np.inf for v in (self.a, self.b, self.c)):
            raise InvalidParameter(
                "ellipsoid semi-axes must have positive finite squares, got "
                f"({self.a!r}, {self.b!r}, {self.c!r})")

    @property
    def axes_sq(self):
        return np.array([self.a**2, self.b**2, self.c**2])

    def support_values(self, points):
        pts = np.asarray(points, dtype=float)
        return np.sqrt(pts**2 @ self.axes_sq)

    def curvature_values(self, points):
        """f = (Laplacian + 2) u, the sum of the principal radii, in closed form
        (a^2+b^2+c^2 - sum a_i^4 x_i^2/h^2)/h, h = u: no h^3 to underflow."""
        pts = np.asarray(points, dtype=float)
        A, h2 = self.axes_sq, pts**2 @ self.axes_sq
        return (A.sum() - (pts**2 @ A**2) / h2) / np.sqrt(h2)


@dataclass(frozen=True)
class HarmonicBump:
    """Curvature data f = base + eps * Y_l^m, the right-hand side of
    (Laplacian + 2) u = f (``family:harmonic`` synthesizes it as f).

    For l != 1 its solution is the support-function candidate u = base/2 +
    eps * Y_l^m / (2 - l(l+1)); l = 1 violates the orthogonality condition.
    u is convex only for small eps; larger eps builds non-convex test cases.
    """

    l: int
    m: int
    eps: float
    base: float

    def __post_init__(self):
        if self.l < 0 or abs(self.m) > self.l:
            raise InvalidParameter("harmonic bump needs 0 <= |m| <= l")

    def coeffs(self, L_max: int) -> harmonics.HarmonicCoeffs:
        """Coefficients at band L_max; ones that overflow are an InvalidParameter."""
        if L_max < self.l:
            raise InvalidParameter(f"band limit {L_max} below bump degree {self.l}")
        c = np.zeros((L_max + 1) ** 2)
        with np.errstate(over="ignore"):
            c[0] = self.base * np.sqrt(4.0 * np.pi)
            c[harmonics.HarmonicCoeffs.index(self.l, self.m)] += self.eps
        return harmonics.HarmonicCoeffs(L_max=L_max, c=c)


def support_function(body, grid: SphereGrid, L_max: int) -> harmonics.SphericalField:
    """Sample the support function of an analytic body (an Ellipsoid, or any
    object with ``support_values(points)``) on a grid and analyze it at band
    limit L_max."""
    return harmonics.field_from_function(grid, body.support_values, L_max)


def forward_f(u: harmonics.SphericalField) -> harmonics.SphericalField:
    """f = (Laplacian + 2) u, applied spectrally.

    When u is a support function this is the sum of the two principal
    curvature radii at the point with outward normal x.
    """
    return harmonics.synthesize(u.coeffs.apply_operator(), u.grid)


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
    |b - d|^2 (1 + 1e-12), each squared length summed as dx*dx + dy*dy +
    dz*dz, so a tie to rounding goes to the a-c diagonal, else (b, c, d),
    (b, d, a).
    :func:`write_obj` writes every float as its shortest round-trip repr.
    The normals are grid nodes, whose coordinates repeat by the mirror
    symmetries of the grid (13,176 distinct of 55,302 at L = 96), so it
    formats each distinct one once; the vertices depend on u and are all
    distinct, so it formats them one by one.
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

    vertices = np.vstack([verts, _pole_apices(u.coeffs)])
    normals = np.vstack([grid.nodes, [[0.0, 0.0, 1.0]], [[0.0, 0.0, -1.0]]])

    # corners a, b, c, d of every quad, as in SurfaceMesh, azimuth wrapping
    j0 = np.arange(n_phi)
    j1 = np.roll(j0, -1)
    start = np.arange(L - 1)[:, None] * n_phi
    a, d = (start + j0).ravel(), (start + j1).ravel()
    b, c = a + n_phi, d + n_phi
    # elementwise squared lengths; a tie to 1e-12 relative, as rounding makes, goes to a-c
    ac, bd = (verts[a] - verts[c]).T, (verts[b] - verts[d]).T
    short_ac = (ac[0] * ac[0] + ac[1] * ac[1] + ac[2] * ac[2]
                <= (bd[0] * bd[0] + bd[1] * bd[1] + bd[2] * bd[2]) * (1.0 + 1e-12))[:, None]
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


_OBJ_BLOCK_ROWS = 4096


def write_obj(mesh: SurfaceMesh, path):
    """Wavefront OBJ: v lines, vn lines in vertex order, 1-based f lines,
    streamed to ``path`` with one format per block of rows.

    The normals are the grid nodes, whose coordinates repeat (z per ring,
    x and y by the mirror symmetries of the azimuths), so each distinct bit
    pattern is formatted once and the vn lines are built from those
    strings; -0.0 and 0.0 are different patterns and keep their own repr.
    The vertex coordinates are all distinct, where finding the repeats
    would cost more than it saves, so the v lines format every value.
    """
    bits, index = np.unique(mesh.normals.view(np.int64), return_inverse=True)
    reprs = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        for line, rows, strings in (("v %r %r %r\n", mesh.vertices, None),
                                    ("vn %s %s %s\n", index.reshape(-1, 3), reprs),
                                    ("f %d %d %d\n", mesh.faces + 1, None)):
            for k in range(0, len(rows), _OBJ_BLOCK_ROWS):
                block = rows[k : k + _OBJ_BLOCK_ROWS].ravel()
                if strings is not None:
                    block = strings[block]
                fh.write(line * (len(block) // 3) % tuple(block.tolist()))
