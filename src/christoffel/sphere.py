"""Geometry of the unit sphere embedded in R^(n+1).

Points, tangent frames and quadrature grids on S^2.

The full pipeline is fixed to n = 2 (convex bodies in R^3); general n enters
only through the one-dimensional kernel reductions in :mod:`christoffel.kernels`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ResolutionTooLow

UNIT_TOL = 1e-12


def _as_unit(v, tol=UNIT_TOL, what="vector"):
    v = np.asarray(v, dtype=float)
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > tol:
        raise ValueError(f"{what} must be a unit vector, |v| = {nrm!r}")
    return v


@dataclass(frozen=True)
class SpherePoint:
    """A point on S^n, stored as a unit vector in R^(n+1)."""

    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", _as_unit(self.coords, what="point"))


@dataclass(frozen=True)
class TangentDirection:
    """A unit direction tangent to the sphere at ``base``."""

    base: SpherePoint
    dir: np.ndarray

    def __post_init__(self):
        d = _as_unit(self.dir, what="direction")
        if abs(float(d @ self.base.coords)) > UNIT_TOL:
            raise ValueError("direction is not tangent to the sphere at base")
        object.__setattr__(self, "dir", d)


class NodeFrame(NamedTuple):
    """The (e_theta, e_phi) frame of the nodes of a grid, in node order:
    sin and cos theta (N,), e_theta and e_phi (N, 3)."""

    sin: np.ndarray
    cos: np.ndarray
    e_th: np.ndarray
    e_ph: np.ndarray


@dataclass(frozen=True)
class SphereGrid:
    """Quadrature grid on S^2: Gauss-Legendre in cos(theta) x uniform azimuth.

    Nodes are ordered theta-major: node index = i_polar * (2L) + j_azimuth,
    with theta increasing (no poles among the nodes).  The rule integrates
    every spherical harmonic of degree <= 2L-1 exactly.  Every array is
    read-only, as the tables in :attr:`SphereGrid.tables` are formed from
    ``polar_nodes`` and ``phis``: no write puts the two out of step.
    """

    L: int
    nodes: np.ndarray            # (N, 3) unit vectors
    weights: np.ndarray          # (N,) positive, summing to 4*pi
    polar_nodes: np.ndarray      # (L,) Gauss-Legendre nodes in cos(theta), theta-ascending
    polar_weights: np.ndarray    # (L,) matching Gauss-Legendre weights
    azimuth_count: int
    thetas: np.ndarray = field(repr=False)
    phis: np.ndarray = field(repr=False)

    def __post_init__(self):
        for a in (self.nodes, self.weights, self.polar_nodes, self.polar_weights,
                  self.thetas, self.phis):
            a.flags.writeable = False

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    @cached_property
    def frame(self) -> NodeFrame:
        """The frame of every node, formed once per grid, read-only: no node
        is a pole, so every grid derivative and 2x2 form lives in it.

        Nodes on one ring share theta and nodes on one meridian share phi,
        so sin and cos are taken of the L polar angles and the 2L azimuths
        alone, then repeated per ring resp. tiled over the rings; each
        entry is the product a per-node evaluation forms, bit for bit."""
        n_phi = self.azimuth_count
        st, ct = np.sin(self.thetas), np.cos(self.thetas)
        cp, sp = np.cos(self.phis), np.sin(self.phis)
        e_th = np.empty((self.L, n_phi, 3))
        np.multiply.outer(ct, cp, out=e_th[..., 0])
        np.multiply.outer(ct, sp, out=e_th[..., 1])
        e_th[..., 2] = -st[:, None]
        e_ph = np.zeros((self.L, n_phi, 3))
        e_ph[..., 0], e_ph[..., 1] = -sp, cp
        arrays = (np.repeat(st, n_phi), np.repeat(ct, n_phi),
                  e_th.reshape(-1, 3), e_ph.reshape(-1, 3))
        for a in arrays:
            a.flags.writeable = False
        return NodeFrame(*arrays)

    @cached_property
    def tables(self) -> dict:
        """The slot, kept as :attr:`SphereGrid.frame` is, in which
        :mod:`christoffel.harmonics` grows the grid's one Legendre and one
        azimuth table with their views; they die with the grid."""
        return {}

    def integrate(self, values) -> float:
        """Quadrature sum over the grid (fixed, deterministic order)."""
        return float(self.weights @ np.asarray(values, dtype=float))


@lru_cache(maxsize=8)
def _polar_rule(L: int):
    """The L-point Gauss-Legendre rule in cos(theta), ordered so that theta
    ascends: (nodes, weights), shared read-only by every grid of size L."""
    t, wt = np.polynomial.legendre.leggauss(L)
    t, wt = t[::-1].copy(), wt[::-1].copy()
    t.flags.writeable = wt.flags.writeable = False
    return t, wt


def make_grid(L: int) -> SphereGrid:
    """Build the S^2 quadrature grid with L polar and 2L azimuthal nodes.

    Parameters
    ----------
    L : int
        Polar resolution, at least 4.  Total node count is 2*L**2.

    Raises
    ------
    ResolutionTooLow
        If L < 4.
    """
    if L < 4:
        raise ResolutionTooLow(f"grid needs L >= 4, got {L}")
    t, wt = _polar_rule(L)
    n_phi = 2 * L
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    st = np.sqrt(1.0 - t**2)
    nodes = np.stack([np.outer(st, np.cos(phis)).ravel(), np.outer(st, np.sin(phis)).ravel(),
                      np.repeat(t, n_phi)], axis=1)
    return SphereGrid(L=L, nodes=nodes, weights=np.repeat(wt * (np.pi / L), n_phi),
                      polar_nodes=t, polar_weights=wt, azimuth_count=n_phi,
                      thetas=np.arccos(t), phis=phis)


def tangent_bases(points: np.ndarray):
    """Deterministic orthonormal bases (e1, e2) of the tangent planes at an
    (N, 3) array of unit vectors, each (N, 3): Gram-Schmidt of the
    coordinate axis least aligned with the point, completed by the cross
    product, so each frame (e1, e2, x) is right-handed.  Defined at the
    poles too; grid nodes use :attr:`SphereGrid.frame` instead.
    """
    pts = np.asarray(points, dtype=float)
    k = np.argmin(np.abs(pts), axis=1)
    a = np.zeros_like(pts)
    a[np.arange(len(pts)), k] = 1.0
    e1 = a - np.sum(a * pts, axis=1, keepdims=True) * pts
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(pts, e1)
    return e1, e2
