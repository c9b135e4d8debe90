import sys

import numpy as np
import pytest

from christoffel import body, harmonics, sphere


def clear_program_caches():
    """Empty every functools cache of the package, as a fresh process has
    them."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("christoffel."):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == name:
                    obj.cache_clear()


@pytest.fixture(scope="session")
def grid16():
    return sphere.make_grid(16)


@pytest.fixture(scope="session")
def grid24():
    return sphere.make_grid(24)


@pytest.fixture(scope="session")
def grid48():
    return sphere.make_grid(48)


def harmonic_field(grid, base, terms, L_max=16):
    """Field base + sum(eps * Y_l^m) built exactly in coefficient space."""
    c = np.zeros((L_max + 1) ** 2)
    c[0] = base * np.sqrt(4.0 * np.pi)
    for (l, m), eps in terms.items():
        c[harmonics.HarmonicCoeffs.index(l, m)] += eps
    return harmonics.synthesize(harmonics.HarmonicCoeffs(L_max=L_max, c=c), grid)


def constant_field(grid, value, L_max=16):
    return harmonic_field(grid, value, {}, L_max)


def random_positive_field(grid, rng, base=2.0, amp=0.3, l_max_content=5, L_max=16):
    """Seeded band-limited field, rescaled to keep min >= base * 0.25."""
    c = np.zeros((L_max + 1) ** 2)
    for l in range(1, l_max_content + 1):
        for m in range(-l, l + 1):
            c[harmonics.HarmonicCoeffs.index(l, m)] = rng.normal(0.0, amp / l)
    c[0] = 0.0
    bump = harmonics.synthesize(harmonics.HarmonicCoeffs(L_max=L_max, c=c), grid)
    span = float(np.max(np.abs(bump.values)))
    scale = min(1.0, 0.75 * base / span) if span > 0 else 1.0
    return harmonic_field(
        grid,
        base,
        {
            (l, m): scale * c[harmonics.HarmonicCoeffs.index(l, m)]
            for l in range(1, l_max_content + 1)
            for m in range(-l, l + 1)
        },
        L_max,
    )


@pytest.fixture(scope="session")
def const2_48(grid48):
    return constant_field(grid48, 2.0, L_max=32)


def rotate_about_z(coeffs, angle):
    """Coefficients of f(R^-1 x) for the rotation R by ``angle`` about z."""
    c = coeffs.c.copy()
    for l in range(coeffs.L_max + 1):
        for m in range(1, l + 1):
            a, b = coeffs.get(l, m), coeffs.get(l, -m)
            c[l * l + l + m] = a * np.cos(m * angle) - b * np.sin(m * angle)
            c[l * l + l - m] = a * np.sin(m * angle) + b * np.cos(m * angle)
    return harmonics.HarmonicCoeffs(L_max=coeffs.L_max, c=c)


# ----------------------------------------------------------------------
# Analytic ellipsoid oracles
# ----------------------------------------------------------------------

def ellipsoid_ambient_hessian(ell: body.Ellipsoid, x) -> np.ndarray:
    """Ambient Hessian of the 1-homogeneous support function at |x| = 1:
    diag(a^2)/h - (a^2 x)(a^2 x)^T / h^3."""
    xc = np.asarray(x, dtype=float)
    A = ell.axes_sq
    h = float(np.sqrt(xc**2 @ A))
    v = A * xc
    return np.diag(A) / h - np.outer(v, v) / h**3


def ellipsoid_forward_f(ell: body.Ellipsoid, points) -> np.ndarray:
    """Analytic sum of principal radii: (a^2+b^2+c^2)/h - sum a_i^4 x_i^2 / h^3."""
    pts = np.asarray(points, dtype=float)
    A = ell.axes_sq
    h = np.sqrt(pts**2 @ A)
    return A.sum() / h - (pts**2 @ A**2) / h**3


def ellipsoid_principal_radii(ell: body.Ellipsoid, x):
    """Analytic principal radii: eigenvalues of the tangent-restricted
    ambient Hessian of the support function."""
    xc = np.asarray(x, dtype=float)
    E = np.stack(sphere.tangent_basis(xc), axis=1)
    r = np.linalg.eigvalsh(E.T @ ellipsoid_ambient_hessian(ell, xc) @ E)
    return float(r[0]), float(r[1])
