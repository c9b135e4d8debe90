"""Workload definitions and seeded input generation.

A workload is a closed loop: one client issues `christoffel` CLI commands one
after another, each waiting for the previous one to finish.  The sequence of
commands and every input they read is drawn from the workload seed, so the
same seed always yields the same commands and the same input files.  The
program only ever sees what is generated here: `family:` specs with seeded
parameters, and seeded band-limited positive fields written as `file:` CSVs.

Why each workload exists, and which layers of `src/christoffel/` it
exercises or bypasses:

check
    `check` at the default size (L=48, Lmax=32) on a seeded mix of three
    input classes: ellipsoids (convex, so CR1/CR2 hold and exit 0), sectoral
    harmonic bumps with eps past the convexity limit (not convex, so CR2
    fails, CR1 fails or is inconclusive, and exit 2), and random
    even-polynomial fields read from CSV (convex; these go through CSV
    parsing and `bandlimit`).  `convexity` takes about 98% of the time
    here: T33 (its `values_and_gradient_at` calls) about 68%, the CR
    sweeps about 26%, Hoelder about 4%.  `lp` and `body.embed` are idle, so
    work on the T33 and sweep paths shows up here and nowhere else.
scale
    `solve --out`, `reconstruct --obj`, `lp --p` in (2.5, 4) and `lp --p 2`
    at L=96, Lmax=64, on ellipsoid curvature data and random fields, both
    read from CSV.  The work is in the `harmonics` transforms at four
    times the nodes, the `lp` quasi-Newton and the dense eigen path
    (`design_matrix`), `body.embed`, and CSV/OBJ output.  `convexity` only
    runs `hessian_min`, so a CR/T33 change should leave these numbers
    unchanged; a change to the shared spectral operator touches every
    command here.
cold
    `solve`, `kernels`, `gamma` with a small `--mc-samples`, and `lp --p 4`
    at the default size, each as a fresh `python -m christoffel.cli`
    process.  The computation takes milliseconds, so import and first-call
    set-up dominate (`scipy.integrate` at import, sympy on the first
    `berg_g`).  Lazy imports show up only here, and work moved into import
    shows up here as a regression even where it looks free in `check` and
    `scale`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

# (grid L, band limit Lmax) per workload; the tiny sizes keep the
# benchmark's own tests quick and are never used for measurements
SIZES = {
    "check": (48, 32),
    "scale": (96, 64),
    "cold": (48, 32),
}
TINY_SIZES = {
    "check": (16, 10),
    "scale": (16, 10),
    "cold": (12, 8),
}

# command kinds per workload and how often each appears in one cycle of the
# closed loop; the cheap `scale` commands repeat so that their medians rest
# on more than one sample while `lp --p 2` (the dense path) runs once
KINDS = {
    "check": {"check": 1},
    "scale": {"solve": 3, "reconstruct": 3, "lp": 3, "lp_eigen": 1},
    "cold": {"cold_solve": 1, "cold_kernels": 1, "cold_gamma": 1, "cold_lp": 1},
}

# input classes per command kind: `ellipsoid` is the family spec,
# `ellipsoid_csv` the same curvature data sampled into a CSV, `bump` a
# non-convex harmonic family, `random` a random even-polynomial CSV.  `scale`
# reads every input from a CSV so that all its commands of one kind cost the
# same to parse.  `cold_lp` takes random fields only: at Lmax=32, `lp --p 4`
# stalls just above its 1e-8 tolerance on about 2% of the ellipsoids (those
# with an axis ratio near 2), while all of 147 seeded random fields converge.
FIELDS = {
    "check": ["ellipsoid", "bump", "random"],
    **dict.fromkeys(["solve", "reconstruct", "lp", "lp_eigen"], ["ellipsoid_csv", "random"]),
    "cold_solve": ["ellipsoid"],
    "cold_lp": ["random"],
}

# sectoral bumps base + eps Y_l^l, eps for base 2: between 1.45x the eps at
# which Hess u + u I first loses positivity and 0.9x the positivity limit of
# f (measured at L=48, Lmax=32), so the solution is clearly not convex while
# f stays positive.  There CR2 fails by more than ten error bands; CR1, whose
# cap correction gives a wider band, may only say inconclusive.
_BUMP_EPS = {4: (2.78, 2.88), 5: (2.58, 2.75), 6: (2.43, 2.64), 7: (2.31, 2.55)}


@dataclass
class Op:
    """One CLI command of a workload plus what its oracle needs to know."""

    kind: str
    argv: list
    report: str
    expect: dict = field(default_factory=dict)
    inputs: list = field(default_factory=list)
    outputs: list = field(default_factory=list)

    def clear_outputs(self):
        _remove([self.report, *self.outputs])

    def cleanup(self):
        _remove([self.report, *self.outputs, *self.inputs])


def _remove(paths):
    for path in paths:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass


def grid_nodes(L: int):
    """Nodes of the CLI's L x 2L grid in file order (theta-major, theta
    ascending): Gauss-Legendre in cos(theta) times a uniform azimuth."""
    t, _ = np.polynomial.legendre.leggauss(L)
    t = t[::-1]
    phis = 2.0 * np.pi * np.arange(2 * L) / (2 * L)
    st = np.sqrt(1.0 - t * t)
    theta = np.repeat(np.arccos(t), 2 * L)
    phi = np.tile(phis, L)
    xyz = np.stack([np.outer(st, np.cos(phis)).ravel(),
                    np.outer(st, np.sin(phis)).ravel(),
                    np.repeat(t, 2 * L)], axis=1)
    return theta, phi, xyz


def random_even_field(rng, xyz):
    """base * (1 + sum_k w_k <v_k, x>^(2 j_k)) on the nodes.

    An even polynomial restricted to the sphere only has even harmonic
    degrees (at most 6 here), so the field is band-limited, has no degree-1
    component and is positive; the small weights keep its solution convex.
    """
    base = rng.uniform(1.0, 3.0)
    vals = np.ones(len(xyz))
    for _ in range(3):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        vals += rng.uniform(0.0, 0.25) * (xyz @ v) ** (2 * int(rng.integers(1, 4)))
    return base * vals


def write_field_csv(path, theta, phi, values):
    lines = ["theta,phi,value"]
    lines += [f"{th!r},{ph!r},{v!r}" for th, ph, v in
              zip(theta.tolist(), phi.tolist(), values.tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _fmt(x: float) -> str:
    return f"{x:.6f}"


class OpFactory:
    """Builds the seeded command sequence of one workload in a work dir."""

    def __init__(self, workload: str, seed: int, workdir: str, tiny: bool = False):
        if workload not in KINDS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = np.random.default_rng([seed, sorted(KINDS).index(workload)])
        self.workdir = workdir
        self.L, self.Lmax = (TINY_SIZES if tiny else SIZES)[workload]
        self.tiny = tiny
        self._nodes = None
        self._count = 0

    def cycles(self):
        """Endless sequence of ops: each cycle holds every kind of the
        workload as often as KINDS says, in a seeded order."""
        kinds = [k for k, n in KINDS[self.workload].items() for _ in range(n)]
        while True:
            for i in self.rng.permutation(len(kinds)):
                yield self.make(kinds[i])

    # -- inputs ---------------------------------------------------------

    def _path(self, suffix):
        return os.path.join(self.workdir, f"op{self._count:04d}{suffix}")

    def _size_args(self):
        return ["--L", str(self.L), "--Lmax", str(self.Lmax)]

    def _grid(self):
        if self._nodes is None:
            self._nodes = grid_nodes(self.L)
        return self._nodes

    def _axes(self):
        axes = [float(_fmt(v)) for v in self.rng.uniform(0.8, 1.6, size=3)]
        # closed-form sum of principal radii of the ellipsoid on the nodes
        A = np.square(axes)
        x2 = self._grid()[2] ** 2
        h = np.sqrt(x2 @ A)
        return axes, A.sum() / h - (x2 @ A**2) / h**3

    def _csv(self, inputs, values):
        theta, phi, _ = self._grid()
        path = self._path("_f.csv")
        write_field_csv(path, theta, phi, values)
        inputs.append(path)
        return f"file:{path}"

    def _field(self, kind, inputs):
        """A seeded input of one of the FIELDS classes of a command kind;
        returns (field source, what the oracle needs to know about it)."""
        pick = self.rng.choice(FIELDS[kind])
        if pick == "bump":
            l = int(self.rng.integers(4, 8))
            lo, hi = _BUMP_EPS[l]
            base = float(self.rng.uniform(1.5, 3.0))
            eps = float(self.rng.uniform(lo, hi)) * base / 2.0
            m = l if self.rng.random() < 0.5 else -l
            spec = f"family:harmonic:l={l},m={m},eps={_fmt(eps)},base={_fmt(base)}"
            # f = base + eps Y stays positive, so |f| < 2 base
            return spec, {"class": "bump", "f_scale": 2.0 * base}
        if pick == "random":
            values = random_even_field(self.rng, self._grid()[2])
            return self._csv(inputs, values), {"class": "random", "f_scale": float(np.max(values))}
        axes, f = self._axes()
        expect = {"class": "ellipsoid", "axes": axes, "f_scale": float(np.max(f))}
        if pick == "ellipsoid_csv":
            return self._csv(inputs, f), expect
        return "family:ellipsoid:a={},b={},c={}".format(*map(_fmt, axes)), expect

    # -- commands ---------------------------------------------------------

    def make(self, kind: str) -> Op:
        self._count += 1
        report = self._path(".json")
        inputs, outputs = [], []
        cold = kind.startswith("cold_")
        cmd = kind[5:] if cold else kind
        if cmd == "check":
            spec, expect = self._field(kind, inputs)
            argv = ["check", "--input", spec]
        elif cmd == "solve":
            spec, expect = self._field(kind, inputs)
            out = self._path("_u.csv")
            outputs.append(out)
            argv = ["solve", "--input", spec, "--out", out]
        elif cmd == "reconstruct":
            spec, expect = self._field(kind, inputs)
            obj = self._path(".obj")
            outputs.append(obj)
            argv = ["reconstruct", "--input", spec, "--obj", obj]
        elif cmd in ("lp", "lp_eigen"):
            spec, expect = self._field(kind, inputs)
            if kind == "lp_eigen":
                p = 2.0
            elif cold:
                p = 4.0
            else:
                p = float(_fmt(self.rng.uniform(2.5, 4.0)))
            argv = ["lp", "--input", spec, "--p", repr(p)]
            expect = dict(expect, p=p)
        elif cmd == "kernels":
            n = int(self.rng.integers(2, 4))
            out = self._path("_k.csv")
            outputs.append(out)
            argv = ["kernels", "--n", str(n), "--out", out]
            expect = {"n": n}
        elif cmd == "gamma":
            n = int(self.rng.integers(2, 4))
            alpha = float(_fmt(self.rng.uniform(0.3, 1.0)))
            argv = ["gamma", "--n", str(n), "--alpha", repr(alpha),
                    "--mc-samples", "2000" if self.tiny else "20000",
                    "--seed", str(int(self.rng.integers(0, 2**31)))]
            expect = {"n": n, "alpha": alpha}
        else:
            raise ValueError(f"unknown command kind {kind!r}")
        if cmd not in ("kernels", "gamma"):
            argv += self._size_args()
        expect = dict(expect, L=self.L, Lmax=self.Lmax)
        return Op(kind=kind, argv=argv + ["--report", report], report=report,
                  expect=expect, inputs=inputs, outputs=outputs)
