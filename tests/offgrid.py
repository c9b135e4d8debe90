"""Off-grid reads of a band-limited field: the point oracles of the tests.

The commands read every field at the grid nodes only.  The tests also read
fields between the nodes and at the poles, to hold the grid transforms,
the grid derivatives and the criteria to values and derivatives that no
grid route produced.  These reads reuse the program's Legendre recursion
(``harmonics._legendre_packed``), its coefficient gather
(``harmonics._ladder_plan``) and its per-order product
(``harmonics._contract``).

Off-grid derivatives come from one object, the derivative channels of the
1-homogeneous extension G(y) = |y| g(y/|y|): on S^2, DG = grad g + g x and
D^2 G = E (Hess g + g I) E^T for any tangent frame E (Schneider, "Convex
Bodies", 2nd ed., 2014, section 2.5).  A degree-l term contributes only
d_i h, x_i h, d_ij h, x_i d_j h and x_i x_j h of its solid harmonic h, so
the 3 entries of DG are spherical polynomials of degree <= L_max + 1 and the
6 entries of D^2 G of degree <= L_max + 2.  Their coefficients come from
the coefficients of g alone, once per coefficient set
(:func:`extension_channels`): multiplication by a coordinate x_j moves each
degree to its two neighbours (``harmonics.coordinate_product``), and the
ambient derivatives of a homogeneous extension are weighted sums of those
two parts (``harmonics.ambient_gradient``), so no grid and no quadrature is
involved.  Point gradients and ambient Hessians then only synthesize
channels, all channels of one band from one set of theta profiles: no
(theta, phi) frame, no tangent basis and no pole test, so the points may be
poles.
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from christoffel import convexity, harmonics
from christoffel.harmonics import HarmonicCoeffs


def points_angles(points):
    """(points as floats, colatitudes, azimuths) of unit vectors (N, 3)."""
    pts = np.asarray(points, dtype=float)
    # arctan2 keeps full relative accuracy near the poles, where arccos(z)
    # loses about half the digits
    theta = np.arctan2(np.hypot(pts[:, 0], pts[:, 1]), pts[:, 2])
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    return pts, theta, phi


def order_blocks(P, L_max):
    """Per-order views of a packed table (n_pairs, n_pts): entry m is
    (L_max + 1 - m, n_pts), row l - m."""
    offsets = harmonics._pair_index(L_max)[2]
    return tuple(P[offsets[m] : offsets[m + 1]] for m in range(L_max + 1))


@lru_cache(maxsize=4)
def profile_blocks(L_max):
    """Per-order Legendre blocks at the L_max + 2 colatitudes
    pi j / (L_max + 1) of :func:`theta_profiles`, kept read-only."""
    n = L_max + 1
    P = harmonics._legendre_packed(np.cos(np.pi * np.arange(n + 1) / n), L_max)
    return order_blocks(harmonics._read_only(P)[0], L_max)


def theta_profiles(coeffs, theta):
    """Theta profiles of every order at arbitrary colatitudes: (A, B), the
    cosine and the sine profiles, each (n_pts, L_max + 1).  ``coeffs`` is
    one coefficient set, or a sequence of sets of one band whose profiles
    then carry a trailing channel axis: all channels share one FFT and one
    product.

    A_m(theta) = sum_l c_lm P_l^m(cos theta) is a trigonometric polynomial
    of degree <= L_max, a cosine series for even m and a sine series for
    odd m, with A_m(2 pi - theta) = (-1)^m A_m(theta) (the double Fourier
    sphere of Townsend, Wilber & Wright 2016).  Its values at the L_max + 2
    colatitudes pi j / (L_max + 1), from the one per-order product of
    ``harmonics._contract`` with the blocks of :func:`profile_blocks`,
    mirrored onto the circle, give its coefficients by one real FFT.  One
    real matrix product with cos k theta and sin k theta then gives every
    profile at the points.
    """
    if isinstance(coeffs, HarmonicCoeffs):
        L_max, c = coeffs.L_max, coeffs.c
    else:
        L_max, c = coeffs[0].L_max, np.stack([ch.c for ch in coeffs], axis=1)
    n = L_max + 1
    # pair columns c_lm of each channel, then c_l,-m (0 at m = 0), as
    # harmonics.synthesize_channels gathers them
    src, w = (a[:, (0, 4)] for a in harmonics._ladder_plan(L_max))
    cols = (c[src] * w.reshape(w.shape + (1,) * (c.ndim - 1))).reshape(len(src), -1)
    # (order, column, colatitude)
    prof = harmonics._contract(profile_blocks(L_max), cols, L_max)
    sign = ((-1.0) ** np.arange(n))[:, None, None]
    circle = np.concatenate([prof, sign * prof[..., -2:0:-1]], axis=-1)
    F = np.fft.rfft(circle)[..., :n] / n  # the Nyquist term is zero
    F[..., 0] *= 0.5
    # rows a_0 b_0 a_1 ..., columns (order, column)
    W = np.moveaxis(np.stack([F.real, -F.imag], axis=-1), (2, 3), (0, 1)).reshape(2 * n, -1)
    # exp(i k theta) viewed as float interleaves cos k theta and sin k theta
    # in the row order of W
    P = np.exp(1j * np.multiply.outer(theta, np.arange(n))).view(float) @ W
    P = P.reshape((len(theta), n, 2) + c.shape[1:])
    return P[:, :, 0], P[:, :, 1]


def synthesize_at(coeffs, points):
    """Evaluate the expansion at arbitrary unit vectors, shape (N, 3).

    The theta profiles come from :func:`theta_profiles` and are contracted
    with the azimuth factors of each point; memory is O(n_pts L_max).
    ``coeffs`` may also be a sequence of coefficient sets of one band: the
    result is then (N, len(coeffs)), from one set of profiles for all.
    """
    _, theta, phi = points_angles(points)
    A, B = theta_profiles(coeffs, theta)
    m = np.arange(A.shape[1])[None, :]
    z = np.where(m > 0, np.sqrt(2.0), 1.0) * np.exp(1j * m * phi[:, None])
    z = z.reshape(z.shape + (1,) * (A.ndim - 2))
    return np.sum(A * z.real + B * z.imag, axis=1)


class ExtensionChannels(NamedTuple):
    """Coefficients of the derivatives of G(y) = |y| g(y/|y|) on S^2."""

    grad: tuple  # DG_i, i = 0..2, each HarmonicCoeffs at band L_max + 1
    hess: tuple  # D^2 G_ij, i <= j packed as convexity._SYM_ROWS/_SYM_COLS, band L_max + 2


def _extension_channels(coeffs):
    """DG and D^2 G of the 1-homogeneous extension by
    ``harmonics.ambient_gradient``: DG_i at d = 1, D^2 G_ij = d_j DG_i at
    d = 0."""
    DG = harmonics.ambient_gradient(coeffs.c, 1)
    D2G = convexity._sym_pack(harmonics.ambient_gradient(DG, 0))
    return ExtensionChannels(
        grad=tuple(HarmonicCoeffs(L_max=coeffs.L_max + 1, c=ch) for ch in DG.T),
        hess=tuple(HarmonicCoeffs(L_max=coeffs.L_max + 2, c=ch) for ch in D2G.T))


def extension_channels(coeffs):
    """Derivative channels of the 1-homogeneous extension, built on first
    use and kept in the coefficient set's instance dict, where a
    ``functools.cached_property`` would keep them."""
    kept = vars(coeffs)
    if "extension_channels" not in kept:
        kept["extension_channels"] = _extension_channels(coeffs)
    return kept["extension_channels"]


def values_and_gradient_at(coeffs, points):
    """Field values and tangential gradients as ambient 3-vectors, (N,) and
    (N, 3): grad g(x) = DG(x) - g(x) x."""
    pts = np.asarray(points, dtype=float)
    vals = synthesize_at(coeffs, pts)
    DG = synthesize_at(extension_channels(coeffs).grad, pts)
    return vals, DG - vals[:, None] * pts


def extension_hessian_at(coeffs, points):
    """Ambient Hessian D^2 G of the 1-homogeneous extension, (N, 3, 3).

    On S^2 it is E (Hess g + g I) E^T: it annihilates x, and its eigenvalues
    on the tangent plane are those of Hess g + g I (the principal radii when
    g is a support function).
    """
    return synthesize_at(extension_channels(coeffs).hess, points)[:, convexity._SYM_FULL]
