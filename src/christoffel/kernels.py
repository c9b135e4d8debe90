"""Kernel functions for the convexity analysis, sphere dimension 2 <= n <= N_MAX.

All two-point kernels on the sphere depend only on the scalar s = <x, z>
(and c = <xi, z> for the second-derivative kernel), so they are exposed in
reduced scalar form.  Radial improper integrals over (0, inf) are computed
after the substitution rho = (r - s)/sqrt(1 - s^2), which maps the singular
near-configuration onto a fixed Cauchy-like profile and keeps adaptive
quadrature uniformly accurate as s -> 1.

Closed forms: for n = 2 the ray kernel is omega(s) = -1/(1 - s), and the
second-derivative kernel splits as hat_omega(s, c) = A(s) - 3 c^2 B(s) with
A, B rational in s.  These exact forms make up the default kernel table;
the criterion sweeps evaluate the same integrals by their Funk-Hecke
multipliers (:mod:`christoffel.convexity`), and the table backs the direct
cap quadrature that the tests hold them to.  Direct quadrature of the ray
integrals is retained for validation.

Imports: the module needs only numpy, on every path.  The closed forms, the
Berg functions and gamma_{n, alpha} by a fixed Gauss-Jacobi rule are direct
formulas; the functions that validate by adaptive quadrature
(``omega_radial``, ``firey_theta`` and ``gamma_const_info``) share one
numpy Gauss-Kronrod routine, :func:`_gauss_kronrod`, in place of
``scipy.integrate.quad``.  It integrates a batch of independent integrals
in lockstep: each keeps its own panel heap and stopping rule, so it gets
the panels and sums it would get alone, while the integrand is called
once per round for the new panels of all of them.  A single integral is
a batch of one, and :func:`kernel_table` integrates the ray kernels at all
39 values of s in one batch per route.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .errors import InvalidDimension, InvalidParameter, SingularEvaluation


def sphere_surface_measure(n: int) -> float:
    """|S^n| = 2 pi^((n+1)/2) / Gamma((n+1)/2)."""
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


# largest sphere dimension of the kernels: the three routes of
# :func:`kernel_table` agree within 1e-10 relative up to it (1.8e-11 at
# n = 12).  Above it the absolute tolerance 1e-10 of :func:`omega_radial`
# exceeds 1e-10 of its integral, which falls like (1 - s^2)^(n/2) at
# s = -0.95 (2.1e-10 relative at n = 14, 7e-6 at n = 32)
N_MAX = 12


def _require_dimension(n: int) -> None:
    """The one dimension check of every kernel: InvalidDimension outside
    2 <= n <= N_MAX."""
    if not 2 <= n <= N_MAX:
        raise InvalidDimension(f"kernels require 2 <= n <= {N_MAX}, got {n}")


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
# most panels of one adaptive integral
_GK_LIMIT = 200


def _gauss_kronrod(f, a, b, epsabs: float = 1e-10, epsrel: float = 1e-10):
    """int_a^b f(x) dx for a batch of integrals by global adaptive
    Gauss-Kronrod quadrature, all integrals in lockstep.

    ``a`` and ``b`` are scalars or arrays (B,) of the limits; returns
    (values, error_estimates), arrays (B,).  Each panel is integrated by
    the 10/21-point Gauss-Kronrod pair, K21 giving the value and |K21 -
    G10| the panel's error estimate (QUADPACK scales this difference down;
    the raw difference is the more cautious bound).  Every integral keeps
    its own heap of panels: its panel with the largest estimate is bisected
    until its estimates sum to at most max(epsabs, epsrel |value|) or
    ``_GK_LIMIT`` panels exist, and its panels are summed with
    ``math.fsum``.  So each integral takes the same panels and sums as it
    would alone, and a batch of one is the scalar routine.  One round
    bisects the top panel of every integral that is not done, and all their
    halves are evaluated by one call ``f(x, k)``: x (P, 21) holds the nodes
    of P panels, k (P,) the integral of each, and the result is f at x.
    ``f`` is never called at an end point.  b = inf (in every integral of
    the batch or in none) is mapped onto t in [0, 1) by x = a + t/(1 - t);
    b < a integrates over [b, a] and negates.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    sign = np.where(b < a, -1.0, 1.0)
    lo, hi = np.minimum(a, b).ravel(), np.maximum(a, b).ravel()
    if np.isinf(hi).any():
        g, x0 = f, lo

        def f(t, k):
            return g(x0[k, None] + t / (1.0 - t), k) / (1.0 - t) ** 2

        lo, hi = np.zeros_like(lo), np.ones_like(hi)

    def panels(lo, hi, k):
        # (-error, value) of the panels [lo, hi] of the integrals k, as lists
        half = 0.5 * (hi - lo)
        x = (0.5 * (lo + hi))[:, None] + half[:, None] * _GK_NODES
        kg = half[:, None] * np.matmul(_GK_WEIGHTS, f(x, k)[..., None])[..., 0]
        return (-np.abs(kg[:, 0] - kg[:, 1])).tolist(), kg[:, 0].tolist()

    # heap entries (-error, lo, hi, value): the top panel has the largest error
    neg, val = panels(lo, hi, np.arange(len(lo)))
    heaps = [[p] for p in zip(neg, lo.tolist(), hi.tolist(), val)]
    total_val, total_err = list(val), [-e for e in neg]
    while True:
        todo = [i for i, heap in enumerate(heaps)
                if total_err[i] > max(epsabs, epsrel * abs(total_val[i]))
                and len(heap) < _GK_LIMIT]
        if not todo:
            break
        tops = [heapq.heappop(heaps[i]) for i in todo]
        # the two halves of each top panel, side by side
        edges = [(lo, 0.5 * (lo + hi), hi) for _, lo, hi, _ in tops]
        lows = [x for lo, mid, _ in edges for x in (lo, mid)]
        highs = [x for _, mid, hi in edges for x in (mid, hi)]
        neg, val = panels(np.array(lows), np.array(highs), np.repeat(todo, 2))
        for j, (i, top) in enumerate(zip(todo, tops)):
            for h in (2 * j, 2 * j + 1):
                heapq.heappush(heaps[i], (neg[h], lows[h], highs[h], val[h]))
                total_val[i] += val[h]
                total_err[i] -= neg[h]
            total_val[i] -= top[3]
            total_err[i] += top[0]
    values = np.array([math.fsum(p[3] for p in heap) for heap in heaps])
    errors = np.array([math.fsum(-p[0] for p in heap) for heap in heaps])
    return sign.ravel() * values, errors


# ----------------------------------------------------------------------
# Ray kernels omega and hat-omega
# ----------------------------------------------------------------------

def _check_s(s):
    """The arguments s, a scalar or an array, as a list of floats;
    SingularEvaluation unless every |s| < 1."""
    values = np.ravel(s).tolist()
    for x in values:
        if not -1.0 < x < 1.0:
            raise SingularEvaluation(f"kernel argument must satisfy |s| < 1, got s={x}")
    return values


def _per_s(s, values):
    """``values`` (a list) shaped as the kernel argument s: a float for a
    scalar s, else an array."""
    return values[0] if np.ndim(s) == 0 else np.array(values).reshape(np.shape(s))


def omega_radial(s, n: int):
    """Ray integral -int_0^inf r^(n-1) (r^2 - 2 s r + 1)^(-(n+1)/2) dr.

    Adaptive quadrature in the substituted variable rho = (r - s)/sqrt(1-s^2),
    one integral per value of ``s`` (a scalar or an array), all of them in
    one batch of :func:`_gauss_kronrod`.
    """
    _require_dimension(n)
    sv = _check_s(s)
    qv = [math.sqrt(1.0 - x * x) for x in sv]
    S, Q = np.array(sv), np.array(qv)

    def integrand(rho, k):
        r = S[k, None] + Q[k, None] * rho
        return r ** (n - 1) * (rho * rho + 1.0) ** (-(n + 1) / 2.0)

    val, _ = _gauss_kronrod(integrand, [-x / q for x, q in zip(sv, qv)], math.inf)
    return _per_s(s, [-(q ** -n) * v for q, v in zip(qv, val.tolist())])


def _hypergeometric_1(b: float, c: float, w: float) -> float:
    """Gauss's 2F1(1, b; c; w) = sum_m (b)_m / (c)_m w^m for 0 <= w < 1,
    b, c > 0: positive terms, summed until they no longer change the sum."""
    total, term, m = 1.0, 1.0, 0
    while term > 1e-17 * total:
        term *= (b + m) / (c + m) * w
        total += term
        m += 1
    return total


def _wallis(k: int) -> float:
    """W_k = int_0^(pi/2) sin^k t dt = pi/2 resp. 1 times (j - 1)/j for
    j = k, k - 2, ... down to 2 resp. 3, a product of positive factors."""
    w = 0.5 * math.pi if k % 2 == 0 else 1.0
    for j in range(k, 1, -2):
        w *= (j - 1) / j
    return w


def _sin_power_from_end(k: int, x: float) -> float:
    """int_0^y sin^k t dt for y = min(x, pi - x), x in [0, pi]: the
    integral from the nearer end of [0, pi], to full relative accuracy.

    With z = sin^2 x it is (1/2) B(z; (k + 1)/2, 1/2), the incomplete beta
    function, taken by the rule of Numerical Recipes (sec. 6.4): for z <=
    (k + 3)/(k + 6)

        sin^(k+1) x |cos x| / (k + 1) 2F1(1, k/2 + 1; k/2 + 3/2; z),

    and above it W_k (:func:`_wallis`) minus the integral over [y, pi/2],

        sin^(k+1) x |cos x| 2F1(1, k/2 + 1; 3/2; cos^2 x).

    Every term is positive, so nothing cancels but that one difference, and
    it keeps more than 8% of W_k (I_z((k + 1)/2, 1/2) at the switch falls
    from 0.17 at k = 6 towards 0.083), so it costs at most about one digit.
    """
    sx, cx = math.sin(x), abs(math.cos(x))
    z = sx * sx
    edge = sx ** (k + 1) * cx
    if z <= (k + 3) / (k + 6):
        return edge / (k + 1) * _hypergeometric_1(0.5 * k + 1.0, 0.5 * k + 1.5, z)
    return _wallis(k) - edge * _hypergeometric_1(0.5 * k + 1.0, 1.5, cx * cx)


def _sin_power_integral(k: int, a: float, b: float) -> float:
    """int_a^b sin^k t dt in closed form, for a, b in [0, pi].

    Explicit antiderivatives for k <= 5.  Above that the integral is
    P(b) - P(a) with P(x) = int_0^x sin^k: P is the integral from the
    nearer end (:func:`_sin_power_from_end`), taken from 2 W_k beyond pi/2,
    and the 2 W_k cancel exactly when a and b lie on the same side.  So a
    tail near either end keeps its relative accuracy, where the upward
    reduction formula int sin^k = -sin^(k-1) cos / k + (k-1)/k int sin^(k-2)
    loses it: its two terms cancel beyond pi/2, and the error it starts
    with grows relative to the tail like sin^-k.
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

    def split(x):
        # P(x) as (whole multiple of 2 W_k, signed integral from the nearer end)
        e = _sin_power_from_end(k, x)
        return (0.0, e) if x <= 0.5 * math.pi else (2.0 * _wallis(k), -e)

    (wb, eb), (wa, ea) = split(b), split(a)
    return (wb - wa) + (eb - ea)


def omega_closed(s: float, n: int) -> float:
    """Closed form -(1 - s^2)^(-n/2) int_arccos(s)^pi sin^(n-1) t dt."""
    _require_dimension(n)
    _check_s(s)
    theta = math.acos(s)
    return -((1.0 - s * s) ** (-n / 2.0)) * _sin_power_integral(n - 1, theta, math.pi)


def firey_theta(s, n: int):
    """Firey's kernel Theta(s) = (1-s^2)^(-n/2) int_pi^arccos(s) sin^(n-1) t dt.

    Evaluated by adaptive Gauss-Kronrod quadrature of the defining formula
    (:func:`_gauss_kronrod`, tolerance 1e-13), one integral per value of
    ``s`` (a scalar or an array) in one batch, kept independent of the
    antiderivatives behind :func:`omega_closed` so the identity between the
    two is a genuine cross-check.
    """
    _require_dimension(n)
    sv = _check_s(s)
    val, _ = _gauss_kronrod(lambda t, k: np.sin(t) ** (n - 1), math.pi,
                            [math.acos(x) for x in sv], epsabs=1e-13, epsrel=1e-13)
    return _per_s(s, [(1.0 - x * x) ** (-n / 2.0) * v for x, v in zip(sv, val.tolist())])


def kernel_table(n: int):
    """The three routes to omega in dimension n, cross-checked.

    Returns (rows, summary): rows (s, omega_radial, omega_closed,
    firey_theta) at s = -0.95 to 0.95 in steps of 0.05, each quadrature
    evaluated once (the two quadratures each in one batch over s), and
    their largest gaps ``max_abs_radial_minus_closed`` and
    ``max_abs_closed_minus_firey`` with ``dimensions`` [n].
    """
    s = np.arange(-0.95, 0.951, 0.05)
    rows = list(zip(s.tolist(), omega_radial(s, n).tolist(),
                    [omega_closed(x, n) for x in s.tolist()], firey_theta(s, n).tolist()))
    return rows, {
        "max_abs_radial_minus_closed": max(abs(rc - oc) for _, rc, oc, _ in rows),
        "max_abs_closed_minus_firey": max(abs(oc - ft) for _, _, oc, ft in rows),
        "dimensions": [n],
    }


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
    _require_dimension(n)
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

# smallest alpha of gamma_{n, alpha}: the integral I grows like omega_n /
# alpha, and below about 1e-150 its square, the quadrature error estimate of
# gamma_const_info and the squared Monte-Carlo weights overflow
_ALPHA_MIN = 1e-100


def _check_gamma_args(n: int, alpha: float):
    _require_dimension(n)
    if not (_ALPHA_MIN <= alpha <= 1.0):
        raise InvalidParameter(f"alpha must lie in [{_ALPHA_MIN:g}, 1], got {alpha}")


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
    is its |K21 - G10| sum carried to gamma.  This is the cross-check of
    :func:`gamma_const` that the ``gamma`` command reports with their gap;
    it shares with that fixed Gauss-Jacobi rule only the inner closed form
    :func:`_sin_power_integral`.
    """
    _check_gamma_args(n, alpha)
    h0 = _sin_power_integral(n - 1, 0.0, math.pi)

    def integrand(theta, k):
        inner = np.array([_sin_power_integral(n - 1, t, math.pi)
                          for t in theta.ravel().tolist()]).reshape(theta.shape)
        return theta ** (alpha - 1.0) * (theta / np.sin(theta) * inner - h0)

    # tighter than the default: gamma_const is held to 1e-13 against this
    rest, err = (float(v[0]) for v in _gauss_kronrod(
        integrand, 0.0, math.pi, epsabs=1e-12, epsrel=1e-12))
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
    need no adaptive quadrature and no SciPy, and the ``gamma`` command
    reports the same value they use.
    """
    _check_gamma_args(n, alpha)
    x, w = _gauss_jacobi(_GAMMA_NODES, alpha + 1.0)
    theta = 0.5 * np.pi * (1.0 + x)
    h0 = _sin_power_integral(n - 1, 0.0, math.pi)
    h = np.array([t / math.sin(t) * _sin_power_integral(n - 1, t, math.pi) for t in theta])
    rest = (0.5 * np.pi) ** alpha * float(w @ ((h - h0) / (1.0 + x) ** 2))
    I1 = h0 * math.pi**alpha / alpha + rest
    return sphere_surface_measure(n) / (n * (n + 1.0)) / (sphere_surface_measure(n - 1) * I1)


# samples per batch of gamma_monte_carlo, which bounds its memory; the
# batches split the generator's stream, so for a seed the estimate depends on it
_MC_CHUNK = 10**6


def gamma_monte_carlo(
    n: int,
    alpha: float,
    samples: int = 10**7,
    seed: int = 0,
    pole=None,
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

    Returns (gamma_estimate, standard_error).  Raises as
    :func:`gamma_const` for n and alpha, and InvalidParameter for a
    negative seed or fewer than two samples.
    """
    _check_gamma_args(n, alpha)
    if seed < 0:
        raise InvalidParameter(f"the Monte-Carlo seed must be >= 0, got {seed}")
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
        m = min(_MC_CHUNK, samples - count)
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
# Kernel table of the criterion integrals
# ----------------------------------------------------------------------

class ClosedFormKernelTable:
    """Exact n = 2 kernels: omega(s) = -1/(1 - s) and
    hat_omega(s, c) = A(s) - 3 c^2 B(s) with

        A(s) = 1 / (4 pi (1 - s)),   B(s) = (2 - s) / (12 pi (1 - s)^2).

    No command evaluates them: the criterion sweeps use their Funk-Hecke
    multipliers.  The table is the kernel of the node-by-node quadrature
    oracle in the tests, and ``bench/tracing.py`` wraps its methods.
    """

    def omega(self, s):
        return -1.0 / (1.0 - s)

    def hat_A(self, s):
        return 1.0 / (4.0 * np.pi * (1.0 - s))

    def hat_B(self, s):
        return (2.0 - s) / (12.0 * np.pi * (1.0 - s) ** 2)


DEFAULT_TABLE = ClosedFormKernelTable()
