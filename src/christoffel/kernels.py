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

Imports: the module needs only numpy, on every path.  The closed forms, the
Berg functions and gamma_{n, alpha} by a fixed Gauss-Jacobi rule are direct
formulas; the functions that validate by adaptive quadrature
(``omega_radial``, ``firey_theta``, ``hat_omega`` and ``gamma_const_info``)
share one numpy Gauss-Kronrod routine, :func:`_gauss_kronrod`, in place of
``scipy.integrate.quad``.
"""

from __future__ import annotations

import heapq
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


# ----------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature
# ----------------------------------------------------------------------

# QUADPACK qk21 (Piessens et al., QUADPACK, 1983) on [-1, 1], positive half
# in descending order: the 21-point Kronrod abscissae and weights, and the
# 10-point Gauss weights, zero where the abscissa is not a Gauss node.
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208015764546, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.0, 0.066671344308688137593568809893332,
    0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163,
    0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338,
    0.0,
)
# all 21 nodes in ascending order; the Kronrod (row 0) and Gauss (row 1)
# weights on them
_GK_NODES = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_GK_WEIGHTS = np.array([list(w[:-1]) + list(w[::-1]) for w in (_WGK, _WG)])


def _gauss_kronrod(f, a: float, b: float, epsabs: float = 1e-10,
                   epsrel: float = 1e-10, limit: int = 200):
    """int_a^b f(x) dx by global adaptive Gauss-Kronrod quadrature.

    Returns (value, error_estimate).  Each panel is integrated by the
    10/21-point Gauss-Kronrod pair, K21 giving the value and |K21 - G10|
    the panel's error estimate (QUADPACK scales this difference down; the
    raw difference is the more cautious bound).  The panel with the largest
    estimate is bisected until the estimates sum to at most
    max(epsabs, epsrel |value|) or ``limit`` panels exist; the panels are
    summed with ``math.fsum``.  ``f`` is vectorized: it is called once per
    panel, on the array of its 21 nodes, and never at an end point.
    b = inf is mapped onto t in [0, 1) by x = a + t/(1 - t); b < a
    integrates over [b, a] and negates.
    """
    if b < a:
        val, err = _gauss_kronrod(f, b, a, epsabs, epsrel, limit)
        return -val, err
    if b == math.inf:
        g, x0 = f, a

        def f(t):
            return g(x0 + t / (1.0 - t)) / (1.0 - t) ** 2

        a, b = 0.0, 1.0

    # heap entries (-error, lo, hi, value): the top panel has the largest error
    def panel(lo, hi):
        half = 0.5 * (hi - lo)
        k, g10 = half * (_GK_WEIGHTS @ f(0.5 * (lo + hi) + half * _GK_NODES))
        return (-abs(k - g10), lo, hi, k)

    heap = [panel(a, b)]
    total_val, total_err = heap[0][3], -heap[0][0]
    while total_err > max(epsabs, epsrel * abs(total_val)) and len(heap) < limit:
        neg_err, lo, hi, val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        for part in (panel(lo, mid), panel(mid, hi)):
            heapq.heappush(heap, part)
            total_val += part[3]
            total_err -= part[0]
        total_val -= val
        total_err += neg_err
    return math.fsum(p[3] for p in heap), math.fsum(-p[0] for p in heap)


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


def omega_radial(s: float, params: KernelParams) -> float:
    """Ray integral -int_0^inf r^(n-1) (r^2 - 2 s r + 1)^(-(n+1)/2) dr.

    Adaptive quadrature in the substituted variable rho = (r - s)/sqrt(1-s^2).
    """
    _check_s(s)
    n = params.n
    q = math.sqrt(1.0 - s * s)

    def integrand(rho):
        r = s + q * rho
        return r ** (n - 1) * (rho * rho + 1.0) ** (-(n + 1) / 2.0)

    val, _ = _gauss_kronrod(integrand, -s / q, math.inf)
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

    Evaluated by adaptive Gauss-Kronrod quadrature of the defining formula
    (:func:`_gauss_kronrod`, tolerance 1e-13), kept independent of the
    antiderivatives behind :func:`omega_closed` so the identity between the
    two is a genuine cross-check.
    """
    _check_s(s)
    n = params.n
    val, _ = _gauss_kronrod(
        lambda t: np.sin(t) ** (n - 1), math.pi, math.acos(s), epsabs=1e-13, epsrel=1e-13,
    )
    return (1.0 - s * s) ** (-n / 2.0) * val


def hat_omega(s: float, c: float, params: KernelParams) -> float:
    """Second-derivative ray kernel

        (1/omega_n) int_0^inf (|x - rz|^2 - (n+1) <xi, rz>^2)
                               r^(n-1) |x - rz|^(-(n+3)) dr

    reduced to the scalars s = <x, z>, c = <xi, z> (with x orthogonal to xi,
    all unit).  Uses the same rho substitution as :func:`omega_radial`.
    """
    _check_s(s)
    if s * s + c * c > 1.0 + 1e-12:
        raise SingularEvaluation("need s^2 + c^2 <= 1 for unit x, z and xi _|_ x")
    n = params.n
    q = math.sqrt(1.0 - s * s)
    c2 = c * c

    def integrand(rho):
        r = s + q * rho
        u = rho * rho + 1.0
        return (q * q * u - (n + 1) * c2 * r * r) * r ** (n - 1) * u ** (-(n + 3) / 2.0)

    val, _ = _gauss_kronrod(integrand, -s / q, math.inf)
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


def gamma_const_info(n: int, alpha: float):
    """gamma_{n, alpha} with a 1D quadrature error estimate.

    The defining (n+1)-dimensional integral

        I = int_{R^{n+1}} |y - e|^(-n-1) |y|^(-1) dist(y/|y|, e)^alpha dy

    reduces in polar coordinates to I = omega_{n-1} I1 with

        I1 = int_0^pi theta^(alpha-1) h(theta) dtheta,
        h(theta) = theta / sin(theta) int_theta^pi sin^(n-1) t dt,

    and gamma = omega_n / (n (n+1) I).  Returns (gamma, error_estimate).
    The endpoint singularity theta^(alpha-1) is subtracted:

        I1 = h(0) pi^alpha / alpha + int_0^pi theta^(alpha-1) (h(theta) - h(0)) dtheta,

    with h(0) = int_0^pi sin^(n-1); the remaining integrand is
    O(theta^(alpha+1)), so it stays resolvable as alpha -> 0, where gamma
    tends to 0 like alpha.  That integral is done by adaptive Gauss-Kronrod
    quadrature (:func:`_gauss_kronrod`), numpy only, and the error estimate
    is its |K21 - G10| sum carried to gamma.  This is the reference that
    the ``gamma`` command reports and that :func:`gamma_const` is tested
    against; it shares with that fixed Gauss-Jacobi rule only the inner
    antiderivative :func:`_sin_power_integral`.
    """
    _check_gamma_args(n, alpha)
    h0 = _sin_power_integral(n - 1, 0.0, math.pi)

    def integrand(theta):
        inner = np.array([_sin_power_integral(n - 1, t, math.pi) for t in theta])
        return theta ** (alpha - 1.0) * (theta / np.sin(theta) * inner - h0)

    # tighter than the default: gamma_const is held to 1e-13 against this
    rest, err = _gauss_kronrod(integrand, 0.0, math.pi, epsabs=1e-12, epsrel=1e-12)
    I1 = h0 * math.pi**alpha / alpha + rest
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

    The 1D integral of :func:`gamma_const_info`, with the same subtraction
    of h(0) and theta = pi (1 + x)/2:

        I1 = h(0) pi^alpha / alpha
             + (pi/2)^alpha int_{-1}^{1} (1 + x)^(alpha+1) g(x) dx,

    g = (h(theta) - h(0)) / (1 + x)^2.  h(theta) = theta / sin(theta)
    int_theta^pi sin^(n-1) is analytic on [0, pi] with h - h(0) = O(theta^2)
    for n >= 2, so g is analytic too, and a fixed 40-node Gauss-Jacobi rule
    for the weight (1 + x)^(alpha+1) integrates it to rounding.  That
    exponent stays in (1, 2], away from -1, where the rule's weights lose
    digits as alpha -> 0.  So the L_p condition and the Hoelder threshold
    need no adaptive quadrature and no SciPy.
    """
    _check_gamma_args(n, alpha)
    x, w = _gauss_jacobi(_GAMMA_NODES, alpha + 1.0)
    theta = 0.5 * np.pi * (1.0 + x)
    h0 = _sin_power_integral(n - 1, 0.0, math.pi)
    h = np.array([t / math.sin(t) * _sin_power_integral(n - 1, t, math.pi) for t in theta])
    rest = (0.5 * np.pi) ** alpha * float(w @ ((h - h0) / (1.0 + x) ** 2))
    I1 = h0 * math.pi**alpha / alpha + rest
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

    A pole sample y = pole + rho dir keeps d = |y - pole| = rho exactly and
    takes theta from the components of rho dir along and across the pole,
    never from the rounded y.  For small alpha, rho = R (1 - u)^(1/alpha)
    falls below the resolution of y and can underflow, so it is carried as
    log(rho), and the weight theta^alpha / (|y| d^(n+1) q), q the mixture
    density, is evaluated as (theta / d)^alpha / (|y| d^(n+1-alpha) q),
    whose factors stay bounded as d -> 0.

    Returns (gamma_estimate, standard_error).
    """
    if not (0.0 < alpha <= 1.0):
        raise InvalidParameter(f"alpha must lie in (0, 1], got {alpha}")
    if samples < 2:
        # one sample has no variance estimate: its standard error would read 0
        raise InvalidParameter(f"Monte-Carlo needs at least two samples, got {samples}")
    dim = n + 1
    omega_n = sphere_surface_measure(n)
    if pole is None:
        pole = np.zeros(dim)
        pole[-1] = 1.0
    else:
        pole = np.asarray(pole, dtype=float)
        pole = pole / np.linalg.norm(pole)
    R_near = 0.5
    near_density = alpha / (R_near**alpha * omega_n)  # d^(n+1-alpha) p_near for d <= R_near
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    count = 0
    while count < samples:
        m = min(chunk, samples - count)
        near = rng.random(m) < 0.5
        u = rng.random(m)
        dirs = rng.standard_normal((m, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        along = dirs @ pole
        across = np.linalg.norm(dirs - along[:, None] * pole[None, :], axis=1)
        # far samples y = r dir: |y| = r, theta is the angle of dir to the pole
        ry = u / (1.0 - u)
        theta = np.arctan2(across, along)
        d = np.linalg.norm(ry[:, None] * dirs - pole[None, :], axis=1)
        log_d = np.log(np.maximum(d, 1e-300))
        # pole samples y = pole + rho dir, rho = R_near (1 - u)^(1/alpha)
        log_d[near] = math.log(R_near) + np.log1p(-u[near]) / alpha
        d[near] = np.exp(log_d[near])
        perp, par = d[near] * across[near], 1.0 + d[near] * along[near]
        ry[near] = np.hypot(perp, par)
        theta[near] = np.arctan2(perp, par)
        # theta / d tends to `across` at the pole, its value below d = 1e-150
        ratio = np.where(near & (d <= 1e-150), across, theta / np.maximum(d, 1e-300))
        good = ry > 0
        ry_s = np.maximum(ry, 1e-300)
        # d^(n+1) q / d^alpha, q = (p_far + p_near) / 2 the mixture density
        far_part = np.exp((dim - alpha) * log_d) / ((1.0 + ry) ** 2 * omega_n * ry_s**n)
        q_scaled = 0.5 * far_part + 0.5 * np.where(d <= R_near, near_density, 0.0)
        w = np.where(good, ratio**alpha / (ry_s * q_scaled), 0.0)
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


DEFAULT_TABLE = ClosedFormKernelTable()
