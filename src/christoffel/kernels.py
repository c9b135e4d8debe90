"""Kernel functions for the convexity analysis, general dimension n >= 2.

All two-point kernels on the sphere depend only on the scalar s = <x, z>
(and c = <xi, z> for the second-derivative kernel), so they are exposed in
reduced scalar form.  Radial improper integrals over (0, inf) are computed
after the substitution rho = (r - s)/sqrt(1 - s^2), which maps the singular
near-configuration onto a fixed Cauchy-like profile and keeps adaptive
quadrature uniformly accurate as s -> 1.

Closed forms: for n = 2 the ray kernel is omega(s) = -1/(1 - s), and the
second-derivative kernel splits as hat_omega(s, c) = A(s) - 3 c^2 B(s) with
A, B rational in s.  These exact forms back the default kernel table used by
the criterion sweeps; direct quadrature is retained for validation.

Imports: the module needs only numpy at import and on the production paths
(the closed forms, the Berg functions and gamma_{n, alpha} by a fixed
Gauss-Jacobi rule).  ``scipy.integrate.quad`` is imported inside the
functions that validate by adaptive quadrature: ``omega_radial``,
``firey_theta``, ``hat_omega`` and ``gamma_const_info``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimension, InvalidParameter, SingularEvaluation


def sphere_surface_measure(n: int) -> float:
    """|S^n| = 2 pi^((n+1)/2) / Gamma((n+1)/2)."""
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


@dataclass(frozen=True)
class KernelParams:
    """Dimension and surface measure bundle for the kernel family."""

    n: int
    omega_n: float = None

    def __post_init__(self):
        if self.n < 2:
            raise InvalidDimension(f"kernels require n >= 2, got {self.n}")
        if self.omega_n is None:
            object.__setattr__(self, "omega_n", sphere_surface_measure(self.n))


@dataclass(frozen=True)
class RadialQuadratureConfig:
    """Tolerances for the adaptive radial quadratures."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 60

    def __post_init__(self):
        for t in (self.abs_tol, self.rel_tol):
            if not (0.0 < t <= 1e-2):
                raise InvalidParameter(f"tolerance {t} outside (0, 1e-2]")


DEFAULT_CFG = RadialQuadratureConfig()


# ----------------------------------------------------------------------
# Fundamental solution of the Laplacian on R^(n+1)
# ----------------------------------------------------------------------

def fundamental(x, y, params: KernelParams) -> float:
    """Newtonian kernel F(x, y) = |x - y|^(1-n) / ((1 - n) omega_n)."""
    d = float(np.linalg.norm(np.asarray(x, float) - np.asarray(y, float)))
    if d == 0.0:
        raise SingularEvaluation("fundamental solution evaluated at x = y")
    return d ** (1 - params.n) / ((1 - params.n) * params.omega_n)


def fundamental_dir2(x, y, xi, params: KernelParams) -> float:
    """Second directional derivative of F along xi:

        F_xixi = (|x - y|^2 - (n+1) <xi, x - y>^2) / (omega_n |x - y|^(n+3)).
    """
    diff = np.asarray(x, float) - np.asarray(y, float)
    d2 = float(diff @ diff)
    if d2 == 0.0:
        raise SingularEvaluation("kernel second derivative evaluated at x = y")
    proj = float(np.asarray(xi, float) @ diff)
    return (d2 - (params.n + 1) * proj * proj) / (
        params.omega_n * d2 ** ((params.n + 3) / 2.0)
    )


# ----------------------------------------------------------------------
# Ray kernels omega and hat-omega
# ----------------------------------------------------------------------

def _check_s(s: float):
    if not -1.0 < s < 1.0:
        raise SingularEvaluation(f"kernel argument must satisfy |s| < 1, got s={s}")


def omega_radial(s: float, params: KernelParams, cfg: RadialQuadratureConfig = DEFAULT_CFG) -> float:
    """Ray integral -int_0^inf r^(n-1) (r^2 - 2 s r + 1)^(-(n+1)/2) dr.

    Adaptive quadrature in the substituted variable rho = (r - s)/sqrt(1-s^2).
    """
    from scipy.integrate import quad

    _check_s(s)
    n = params.n
    q = math.sqrt(1.0 - s * s)
    rho0 = -s / q

    def integrand(rho):
        r = s + q * rho
        return r ** (n - 1) * (rho * rho + 1.0) ** (-(n + 1) / 2.0)

    val, _ = quad(
        integrand, rho0, np.inf,
        epsabs=cfg.abs_tol, epsrel=cfg.rel_tol, limit=cfg.max_subdivisions,
    )
    return -(q ** -n) * val


def _sin_power_integral(k: int, a: float, b: float) -> float:
    """int_a^b sin^k t dt in closed form.

    Explicit antiderivatives for k <= 5; above that the reduction formula
    int sin^k = -sin^(k-1) cos / k + (k-1)/k int sin^(k-2), whose factor
    (k-1)/k < 1 keeps the upward recursion stable.
    """
    if k <= 5:
        def anti(t):
            ct, st = math.cos(t), math.sin(t)
            if k == 0:
                return t
            if k == 1:
                return -ct
            if k == 2:
                return 0.5 * (t - st * ct)
            if k == 3:
                return -ct + ct**3 / 3.0
            if k == 4:
                return 3.0 * t / 8.0 - math.sin(2 * t) / 4.0 + math.sin(4 * t) / 32.0
            return -ct + 2.0 * ct**3 / 3.0 - ct**5 / 5.0

        return anti(b) - anti(a)
    edge = math.sin(b) ** (k - 1) * math.cos(b) - math.sin(a) ** (k - 1) * math.cos(a)
    return -edge / k + (k - 1) / k * _sin_power_integral(k - 2, a, b)


def omega_closed(s: float, params: KernelParams) -> float:
    """Closed form -(1 - s^2)^(-n/2) int_arccos(s)^pi sin^(n-1) t dt."""
    _check_s(s)
    n = params.n
    theta = math.acos(s)
    return -((1.0 - s * s) ** (-n / 2.0)) * _sin_power_integral(n - 1, theta, math.pi)


def firey_theta(s: float, params: KernelParams) -> float:
    """Firey's kernel Theta(s) = (1-s^2)^(-n/2) int_pi^arccos(s) sin^(n-1) t dt.

    Evaluated by direct numerical integration of the defining formula, kept
    independent of :func:`omega_closed` so the identity between the two is a
    genuine cross-check.
    """
    from scipy.integrate import quad

    _check_s(s)
    n = params.n
    theta = math.acos(s)
    val, _ = quad(
        lambda t: math.sin(t) ** (n - 1), math.pi, theta,
        epsabs=1e-13, epsrel=1e-13, limit=200,
    )
    return (1.0 - s * s) ** (-n / 2.0) * val


def hat_omega(s: float, c: float, params: KernelParams, cfg: RadialQuadratureConfig = DEFAULT_CFG) -> float:
    """Second-derivative ray kernel

        (1/omega_n) int_0^inf (|x - rz|^2 - (n+1) <xi, rz>^2)
                               r^(n-1) |x - rz|^(-(n+3)) dr

    reduced to the scalars s = <x, z>, c = <xi, z> (with x orthogonal to xi,
    all unit).  Uses the same rho substitution as :func:`omega_radial`.
    """
    from scipy.integrate import quad

    _check_s(s)
    if s * s + c * c > 1.0 + 1e-12:
        raise SingularEvaluation("need s^2 + c^2 <= 1 for unit x, z and xi _|_ x")
    n = params.n
    q = math.sqrt(1.0 - s * s)
    rho0 = -s / q
    c2 = c * c

    def integrand(rho):
        r = s + q * rho
        u = rho * rho + 1.0
        return (q * q * u - (n + 1) * c2 * r * r) * r ** (n - 1) * u ** (-(n + 3) / 2.0)

    val, _ = quad(
        integrand, rho0, np.inf,
        epsabs=cfg.abs_tol, epsrel=cfg.rel_tol, limit=cfg.max_subdivisions,
    )
    return val * q ** (-n - 2) / params.omega_n


def hat_omega_closed(s: float, c: float, params: KernelParams) -> float:
    """Exact decomposition hat_omega(s, c) = A(s) - (n+1) c^2 B(s).

    A(s) = -omega(s)/omega_n; B(s) = (1-s^2)^(-(n+2)/2)
    int_0^(pi - arccos s) sin^(n+1) t dt / omega_n.
    """
    _check_s(s)
    n = params.n
    A = -omega_closed(s, params) / params.omega_n
    theta = math.acos(s)
    B = (
        (1.0 - s * s) ** (-(n + 2) / 2.0)
        * _sin_power_integral(n + 1, 0.0, math.pi - theta)
        / params.omega_n
    )
    return A - (n + 1) * c * c * B


# ----------------------------------------------------------------------
# Berg's recursion
# ----------------------------------------------------------------------

def _berg_operator(n: int):
    """(base, q, C) with g_n(t) = sum_i q[i] t^i g_base^(i)(t) + C t.

    Berg's dimension recursion g_{m+2} = (a_m theta + b_m) g_m + c_m t,
    with theta = t d/dt, a_m = (m+1)/(m-1)^2, b_m = (m+1)/(m-1) and
    c_m = (m+1) Gamma((m+2)/2) / (sqrt(pi) (m+2) Gamma((m+1)/2)), starts
    from g_2 or g_3.  Since theta (t^i D^i) = i t^i D^i + t^(i+1) D^(i+1)
    and theta t = t, each step maps q_i to (a_m i + b_m) q_i + a_m q_(i-1)
    and C to (a_m + b_m) C + c_m.
    """
    base = 2 if n % 2 == 0 else 3
    q = [1.0]
    C = 0.0
    for m in range(base, n, 2):
        a = (m + 1) / (m - 1) ** 2
        b = (m + 1) / (m - 1)
        c = (m + 1) * math.gamma((m + 2) / 2) / (
            math.sqrt(math.pi) * (m + 2) * math.gamma((m + 1) / 2)
        )
        q = q + [0.0]
        q = [(a * i + b) * q[i] + (a * q[i - 1] if i else 0.0) for i in range(len(q))]
        C = (a + b) * C + c
    return base, q, C


def _berg_base_derivatives(base: int, t: np.ndarray, order: int) -> list:
    """g_base and its first ``order`` derivatives at t.

    g_2 = w/pi - t/(2 pi) with w = (pi - arccos t) sqrt(1 - t^2) = (1 - t^2) y,
    where y = arccos(-t)/sqrt(1 - t^2) solves (1 - t^2) y' - t y = 1, so
    (1 - t^2) y^(k+1) = (2k+1) t y^(k) + k^2 y^(k-1); Leibniz then gives
    w^(k) = (1 - t^2) y^(k) - 2k t y^(k-1) - k(k-1) y^(k-2).
    g_3 = 1 + t log(1 - t) + (4/3 - log 2) t, and for k >= 2
    D^k [t log(1 - t)] = -(k-2)! (k - t)/(1 - t)^k.
    """
    if base == 2:
        one_m = 1.0 - t * t
        acos_neg = np.arccos(-t)
        out = [acos_neg * np.sqrt(one_m) / np.pi - t / (2.0 * np.pi)]
        y = [acos_neg / np.sqrt(one_m)]
        y.append((1.0 + t * y[0]) / one_m)
        for k in range(1, order):
            y.append(((2 * k + 1) * t * y[k] + k * k * y[k - 1]) / one_m)
        for k in range(1, order + 1):
            w = one_m * y[k] - 2 * k * t * y[k - 1]
            if k >= 2:
                w = w - k * (k - 1) * y[k - 2]
            out.append(w / np.pi - (1.0 / (2.0 * np.pi) if k == 1 else 0.0))
        return out
    one_m = 1.0 - t
    log1m = np.log(one_m)
    slope = 4.0 / 3.0 - math.log(2.0)
    out = [1.0 + t * log1m + slope * t]
    if order >= 1:
        out.append(log1m - t / one_m + slope)
    for k in range(2, order + 1):
        out.append(-math.factorial(k - 2) * (k - t) / one_m**k)
    return out


def berg_g(n: int, t):
    """Berg's kernel functions g_n: explicit g_2 and g_3, higher orders via
    the dimension recursion, evaluated as a differential operator applied
    to g_2 or g_3 (:func:`_berg_operator`).  Numpy only: neither SymPy nor
    SciPy is loaded; the symbolic derivation is the reference in the tests.

    Scalar or array ``t`` with |t| < 1.
    """
    if n < 2:
        raise InvalidDimension(f"Berg functions start at n = 2, got {n}")
    arr = np.asarray(t, dtype=float)
    if np.any(np.abs(arr) >= 1.0):
        raise SingularEvaluation("Berg g_n requires |t| < 1")
    base, q, C = _berg_operator(n)
    derivs = _berg_base_derivatives(base, arr, len(q) - 1)
    out = C * arr + sum(qi * arr**i * d for i, (qi, d) in enumerate(zip(q, derivs)))
    return float(out) if arr.ndim == 0 else out


# ----------------------------------------------------------------------
# The quantitative threshold constant gamma_{n, alpha}
# ----------------------------------------------------------------------

def _check_gamma_args(n: int, alpha: float):
    if n < 2:
        raise InvalidDimension(f"gamma_const requires n >= 2, got {n}")
    if not (0.0 < alpha <= 1.0):
        raise InvalidParameter(f"alpha must lie in (0, 1], got {alpha}")


def gamma_const_info(n: int, alpha: float, cfg: RadialQuadratureConfig = DEFAULT_CFG):
    """gamma_{n, alpha} with a 1D quadrature error estimate.

    The defining (n+1)-dimensional integral

        I = int_{R^{n+1}} |y - e|^(-n-1) |y|^(-1) dist(y/|y|, e)^alpha dy

    reduces in polar coordinates to the one-dimensional form

        I = omega_{n-1} int_0^pi theta^alpha (sin theta)^(-1)
                          [int_theta^pi sin^(n-1) t dt] dtheta,

    and gamma = omega_n / (n (n+1) I).  Returns (gamma, error_estimate).
    Adaptive quadrature (imports ``scipy.integrate``): this is the
    validated reference that the ``gamma`` command reports and that
    :func:`gamma_const` is tested against.
    """
    from scipy.integrate import quad

    _check_gamma_args(n, alpha)

    def integrand(theta):
        return theta**alpha / math.sin(theta) * _sin_power_integral(n - 1, theta, math.pi)

    I1, err = quad(
        integrand, 0.0, math.pi,
        epsabs=cfg.abs_tol, epsrel=cfg.rel_tol, limit=max(cfg.max_subdivisions, 200),
    )
    omega_nm1 = sphere_surface_measure(n - 1)
    I = omega_nm1 * I1
    K = sphere_surface_measure(n) / (n * (n + 1.0))
    return K / I, K * omega_nm1 * err / I**2


_GAMMA_NODES = 40


def _gauss_jacobi(m: int, beta: float):
    """Nodes and weights of the m-point Gauss rule for the weight
    (1 + x)^beta on [-1, 1], beta > -1: eigenvalues of the Jacobi matrix
    of the monic Jacobi polynomials P^(0, beta) and the squared first
    components of its eigenvectors (Golub & Welsch 1969).
    """
    k = np.arange(1, m, dtype=float)
    s = 2.0 * k + beta
    diag = np.empty(m)
    diag[0] = beta / (beta + 2.0)
    diag[1:] = beta * beta / (s * (s + 2.0))
    off = 2.0 * k * (k + beta) / (s * np.sqrt(s * s - 1.0))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return x, 2.0 ** (beta + 1.0) / (beta + 1.0) * v[0] ** 2


def gamma_const(n: int, alpha: float) -> float:
    """Quantitative convexity threshold gamma_{n, alpha}, numpy only.

    The 1D integral of :func:`gamma_const_info`, with theta = pi (1 + x)/2,
    is (pi/2)^alpha int_{-1}^{1} (1 + x)^(alpha-1) h(theta) dx, where
    h(theta) = theta / sin(theta) int_theta^pi sin^(n-1) is analytic on
    [0, pi].  A fixed 40-node Gauss-Jacobi rule for the weight
    (1 + x)^(alpha-1) integrates it to rounding, so the L_p condition and
    the Hoelder threshold need no adaptive quadrature and no SciPy.
    """
    _check_gamma_args(n, alpha)
    x, w = _gauss_jacobi(_GAMMA_NODES, alpha - 1.0)
    theta = 0.5 * np.pi * (1.0 + x)
    h = [t / math.sin(t) * _sin_power_integral(n - 1, t, math.pi) for t in theta]
    I1 = (0.5 * np.pi) ** alpha * float(w @ h)
    return sphere_surface_measure(n) / (n * (n + 1.0)) / (sphere_surface_measure(n - 1) * I1)


def gamma_monte_carlo(
    n: int,
    alpha: float,
    samples: int = 10**7,
    seed: int = 0,
    pole=None,
    chunk: int = 10**6,
):
    """Monte-Carlo oracle for gamma_{n, alpha} over R^(n+1).

    Importance sampling with an even mixture of a radial x uniform-sphere
    component (radius density 1/(1+r)^2) and a component concentrated at the
    pole (radius density proportional to rho^(alpha - 1) inside a half-unit
    ball), which keeps the weights bounded near both singular sets.

    Returns (gamma_estimate, standard_error).
    """
    if not (0.0 < alpha <= 1.0):
        raise InvalidParameter(f"alpha must lie in (0, 1], got {alpha}")
    dim = n + 1
    omega_n = sphere_surface_measure(n)
    if pole is None:
        pole = np.zeros(dim)
        pole[-1] = 1.0
    else:
        pole = np.asarray(pole, dtype=float)
        pole = pole / np.linalg.norm(pole)
    R_near = 0.5
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    count = 0
    while count < samples:
        m = min(chunk, samples - count)
        pick_near = rng.random(m) < 0.5
        u = rng.random(m)
        dirs = rng.standard_normal((m, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        y = np.empty((m, dim))
        far = ~pick_near
        r_far = u[far] / (1.0 - u[far])
        y[far] = dirs[far] * r_far[:, None]
        rho = R_near * u[pick_near] ** (1.0 / alpha)
        y[pick_near] = pole[None, :] + dirs[pick_near] * rho[:, None]

        ry = np.linalg.norm(y, axis=1)
        d = np.linalg.norm(y - pole[None, :], axis=1)
        good = (ry > 0) & (d > 0)
        ry_s = np.maximum(ry, 1e-300)
        d_s = np.maximum(d, 1e-300)
        theta = np.arccos(np.clip((y @ pole) / ry_s, -1.0, 1.0))
        f = np.where(good, d_s ** (-dim) * theta**alpha / ry_s, 0.0)

        p_far = 1.0 / (1.0 + ry) ** 2 / (omega_n * ry_s**n)
        h = alpha * d_s ** (alpha - 1.0) / R_near**alpha
        p_near = np.where(d < R_near, h / (omega_n * d_s**n), 0.0)
        q = 0.5 * p_far + 0.5 * p_near
        w = np.where(good, f / q, 0.0)
        total += float(np.sum(w))
        total_sq += float(np.sum(w * w))
        count += m
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0) / samples
    se_I = math.sqrt(var)
    K = omega_n / (n * (n + 1.0))
    return K / mean, K * se_I / mean**2


# ----------------------------------------------------------------------
# Kernel tables for the criterion sweeps
# ----------------------------------------------------------------------

class ClosedFormKernelTable:
    """Exact n = 2 kernels: omega(s) = -1/(1 - s) and
    hat_omega(s, c) = A(s) - 3 c^2 B(s) with

        A(s) = 1 / (4 pi (1 - s)),   B(s) = (2 - s) / (12 pi (1 - s)^2).
    """

    n = 2

    def omega(self, s):
        return -1.0 / (1.0 - s)

    def hat_A(self, s):
        return 1.0 / (4.0 * np.pi * (1.0 - s))

    def hat_B(self, s):
        return (2.0 - s) / (12.0 * np.pi * (1.0 - s) ** 2)

    def hat(self, s, c2):
        return self.hat_A(s) - 3.0 * c2 * self.hat_B(s)


class QuadratureKernelTable:
    """Kernel evaluations by direct adaptive quadrature (slow; validation).

    hat_A and hat_B are recovered from hat_omega at c = 0 and at the extreme
    tangential c (c^2 = 1 - s^2), using the exact affine dependence on c^2.
    """

    def __init__(self, params: KernelParams | None = None,
                 cfg: RadialQuadratureConfig = DEFAULT_CFG):
        self.params = params if params is not None else KernelParams(n=2)
        self.cfg = cfg
        self.n = self.params.n

    def omega(self, s):
        return np.vectorize(lambda v: omega_radial(v, self.params, self.cfg))(s)

    def hat_A(self, s):
        return np.vectorize(lambda v: hat_omega(v, 0.0, self.params, self.cfg))(s)

    def hat_B(self, s):
        def one(v):
            cmax2 = max(1.0 - v * v, 1e-300)
            lo = hat_omega(v, 0.0, self.params, self.cfg)
            hi = hat_omega(v, math.sqrt(cmax2), self.params, self.cfg)
            return (lo - hi) / ((self.n + 1) * cmax2)

        return np.vectorize(one)(s)

    def hat(self, s, c2):
        return np.vectorize(
            lambda v, w: hat_omega(v, math.sqrt(max(w, 0.0)), self.params, self.cfg)
        )(s, c2)


DEFAULT_TABLE = ClosedFormKernelTable()
