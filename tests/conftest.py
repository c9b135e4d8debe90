import sys

import numpy as np
import pytest

from christoffel import harmonics, sphere


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
