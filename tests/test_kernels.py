import math

import numpy as np
import pytest
from scipy.integrate import quad

from christoffel import kernels
from christoffel.errors import InvalidDimension, InvalidParameter, SingularEvaluation

P2 = kernels.KernelParams(n=2)
P3 = kernels.KernelParams(n=3)
P4 = kernels.KernelParams(n=4)


class TestParams:
    def test_surface_measures(self):
        assert abs(P2.omega_n - 4 * np.pi) < 1e-12
        assert abs(kernels.sphere_surface_measure(1) - 2 * np.pi) < 1e-12
        assert abs(P3.omega_n - 2 * np.pi**2) < 1e-12

    def test_dimension_gate(self):
        with pytest.raises(InvalidDimension):
            kernels.KernelParams(n=1)


class TestGaussKronrod:
    def test_rule_degrees(self):
        # K21 integrates x^k exactly on [-1, 1] for k <= 31, G10 for k <= 19
        x = kernels._GK_NODES
        for k in range(32):
            exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
            kron, gauss = kernels._GK_WEIGHTS @ x**k
            assert abs(kron - exact) < 1e-15
            if k < 20:
                assert abs(gauss - exact) < 1e-15

    def test_smooth_matches_quad(self):
        f = lambda x: np.exp(-x) * np.cos(5.0 * x)
        ref, _ = quad(f, 0.0, 3.0, epsabs=1e-14, epsrel=1e-14)
        val, err = kernels._gauss_kronrod(f, 0.0, 3.0)
        assert abs(val - ref) <= 1e-14
        assert err <= 1e-10

    def test_semi_infinite_matches_quad(self):
        # x^-2 decay: the map x = a + t/(1 - t) leaves a bounded integrand
        f = lambda x: 1.0 / (1.0 + x * x) + np.exp(-x * x)
        for a in (-3.0, 0.0, 2.5):
            ref, _ = quad(f, a, np.inf, epsabs=1e-13, epsrel=1e-13, limit=200)
            val, err = kernels._gauss_kronrod(f, a, math.inf)
            assert abs(val - ref) <= 1e-12 * abs(ref)
            assert err <= 1e-10 * abs(val)

    def test_reversed_limits(self):
        f = lambda x: np.sin(x) ** 3
        forward, err_f = kernels._gauss_kronrod(f, 0.4, 2.9)
        backward, err_b = kernels._gauss_kronrod(f, 2.9, 0.4)
        ref, _ = quad(f, 2.9, 0.4, epsabs=1e-13, epsrel=1e-13)
        assert backward == -forward and err_b == err_f
        assert abs(backward - ref) <= 1e-14

    @pytest.mark.parametrize("limit", [1, 3, 10])
    def test_estimate_bounds_true_error(self, limit):
        # x^-1/2 defeats the rule near 0; with few panels the true error is
        # far above rounding, and the estimate must not understate it
        f = lambda x: x ** -0.5 + np.cos(30.0 * x)
        exact = 2.0 + math.sin(30.0) / 30.0
        val, err = kernels._gauss_kronrod(f, 0.0, 1.0, limit=limit)
        assert abs(val - exact) > 1e-8
        assert abs(val - exact) <= err


class TestFundamental:
    def test_values(self):
        assert abs(kernels.fundamental([0, 0, 0], [1, 0, 0], P2) + 1 / (4 * np.pi)) < 1e-15
        assert abs(kernels.fundamental([0, 0, 0], [2, 0, 0], P2) + 1 / (8 * np.pi)) < 1e-15
        assert abs(
            kernels.fundamental([0, 0, 0, 0], [1, 0, 0, 0], P3) + 1 / (4 * np.pi**2)
        ) < 1e-15

    def test_singular(self):
        with pytest.raises(SingularEvaluation):
            kernels.fundamental([1, 0, 0], [1, 0, 0], P2)

    def test_second_derivative_orthogonal(self):
        val = kernels.fundamental_dir2([0, 0, 0], [1, 0, 0], [0, 1, 0], P2)
        assert abs(val - 1 / (4 * np.pi)) < 1e-15

    def test_second_derivative_parallel(self):
        val = kernels.fundamental_dir2([0, 0, 0], [1, 0, 0], [1, 0, 0], P2)
        assert abs(val + 1 / (2 * np.pi)) < 1e-15

    def test_second_derivative_bound(self):
        # |F_xixi| <= (n+1) / (omega_n |x-y|^(n+1)) on random configurations
        rng = np.random.default_rng(0)
        for params in (P2, P3):
            dim = params.n + 1
            for _ in range(100):
                x = rng.standard_normal(dim)
                y = rng.standard_normal(dim)
                if np.allclose(x, y):
                    continue
                xi = rng.standard_normal(dim)
                xi /= np.linalg.norm(xi)
                d = np.linalg.norm(x - y)
                bound = (params.n + 1) / (params.omega_n * d ** (params.n + 1))
                assert abs(kernels.fundamental_dir2(x, y, xi, params)) <= bound * (1 + 1e-12)


@pytest.mark.parametrize("k", range(13))
def test_sin_power_integral_matches_quadrature(k):
    for a, b in [(0.0, math.pi), (0.3, 2.9), (2.5, math.pi), (1.0, 0.2)]:
        ref, _ = quad(lambda t: math.sin(t) ** k, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)
        assert abs(kernels._sin_power_integral(k, a, b) - ref) < 1e-13


def _omega_raw_quadrature(s, n):
    """Independent oracle: adaptive quadrature in the raw radial variable."""
    val, _ = quad(
        lambda r: r ** (n - 1) * (r * r - 2 * s * r + 1) ** (-(n + 1) / 2.0),
        0.0, np.inf, epsabs=1e-12, epsrel=1e-12, limit=200,
    )
    return -val


class TestOmega:
    def test_raw_oracle_values(self):
        assert abs(kernels.omega_radial(0.0, P2) - _omega_raw_quadrature(0.0, 2)) < 1e-10
        assert abs(kernels.omega_radial(0.0, P2) + 1.0) < 1e-10
        assert abs(kernels.omega_radial(0.5, P2) + 2.0) < 1e-10

    def test_closed_form_n2(self):
        for s in np.arange(-0.95, 0.951, 0.05):
            assert abs(kernels.omega_closed(float(s), P2) + 1.0 / (1.0 - s)) < 1e-13

    def test_closed_form_n3_zero(self):
        assert abs(kernels.omega_closed(0.0, P3) + np.pi / 4) < 1e-14

    def test_radial_matches_closed_all_dims(self):
        for params in (P2, P3, P4):
            for s in np.arange(-0.95, 0.951, 0.05):
                s = float(s)
                assert abs(
                    kernels.omega_radial(s, params) - kernels.omega_closed(s, params)
                ) < 1e-8

    def test_firey_identity(self):
        for params in (P2, P3, P4):
            for s in np.arange(-0.95, 0.951, 0.05):
                s = float(s)
                assert abs(
                    kernels.omega_closed(s, params) - kernels.firey_theta(s, params)
                ) < 1e-10

    def test_firey_negative(self):
        for s in (-0.9, 0.0, 0.9):
            assert kernels.firey_theta(s, P2) < 0
            assert kernels.firey_theta(s, P3) < 0

    def test_divergence_bound_near_one(self):
        for s in (0.9, 0.99, 0.999):
            assert abs(kernels.omega_closed(s, P2)) >= 1.0 / (1.0 - s) - 1e-9

    def test_singularity_order_general_n(self):
        # |omega(cos eps)| * eps^n bounded above and below on [0.01, 0.3]
        for params in (P2, P3, P4):
            vals = [
                abs(kernels.omega_closed(math.cos(e), params)) * e**params.n
                for e in np.linspace(0.01, 0.3, 12)
            ]
            assert 0.1 < min(vals) and max(vals) < 10.0

    def test_singular_arguments(self):
        with pytest.raises(SingularEvaluation):
            kernels.omega_radial(1.0, P2)
        with pytest.raises(SingularEvaluation):
            kernels.omega_closed(-1.0, P2)
        with pytest.raises(SingularEvaluation):
            kernels.firey_theta(1.5, P2)


def _hat_omega_fixed_step(s, c, n, panels=10**6, r_max=1e3):
    """Brute-force oracle: fixed-step trapezoid plus the analytic O(1/R) tail."""
    omega_n = kernels.sphere_surface_measure(n)
    r = np.linspace(1e-12, r_max, panels + 1)
    d2 = r * r - 2 * s * r + 1
    integrand = (d2 - (n + 1) * c * c * r * r) * r ** (n - 1) * d2 ** (-(n + 3) / 2.0)
    tail = (1.0 - (n + 1) * c * c) / r_max
    return (np.trapezoid(integrand, r) + tail) / omega_n


class TestHatOmega:
    def test_reduction_to_omega_at_c_zero(self):
        for s in np.arange(-0.9, 0.91, 0.1):
            s = float(s)
            lhs = P2.omega_n * kernels.hat_omega(s, 0.0, P2)
            assert abs(lhs + kernels.omega_radial(s, P2)) < 1e-8

    def test_fixed_step_oracle(self):
        val = kernels.hat_omega(0.0, 1.0, P2)
        brute = _hat_omega_fixed_step(0.0, 1.0, 2)
        assert abs(val - brute) < 1e-7
        assert abs(val + 1 / (4 * np.pi)) < 1e-12

    def test_closed_form_matches_quadrature(self):
        for params in (P2, P3):
            for s in (-0.9, -0.3, 0.2, 0.8):
                cmax = math.sqrt(1 - s * s)
                for c in (0.0, 0.4 * cmax, cmax):
                    assert abs(
                        kernels.hat_omega(s, c, params)
                        - kernels.hat_omega_closed(s, c, params)
                    ) < 1e-9

    def test_negative_tail_at_equator(self):
        # at s=0, c=1 the <xi, rz>^2 term dominates for large r
        r = 2.0
        integrand = ((1 + r * r) - 3 * r * r) * r / (1 + r * r) ** 2.5
        assert integrand < 0
        assert kernels.hat_omega(0.0, 1.0, P2) < 0


def _berg_symbolic(n):
    """Reference: Berg's dimension recursion with the derivative taken by
    SymPy, from the explicit g_2 and g_3."""
    import sympy as sp

    t = sp.symbols("t")
    if n == 2:
        return (sp.pi - sp.acos(t)) * sp.sqrt(1 - t**2) / sp.pi - t / (2 * sp.pi), t
    if n == 3:
        return 1 + t * sp.log(1 - t) + (sp.Rational(4, 3) - sp.log(2)) * t, t
    prev, _ = _berg_symbolic(n - 2)
    m = n - 2  # step the dimension recursion from g_m to g_{m+2}
    expr = (
        sp.Rational(m + 1, (m - 1) ** 2) * t * sp.diff(prev, t)
        + sp.Rational(m + 1, m - 1) * prev
        + t / sp.sqrt(sp.pi) * (m + 1) * sp.gamma(sp.Rational(m + 2, 2))
        / ((m + 2) * sp.gamma(sp.Rational(m + 1, 2)))
    )
    return expr, t


class TestBerg:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_matches_symbolic_recursion(self, n):
        import mpmath
        import sympy as sp

        expr, t = _berg_symbolic(n)
        ref_fn = sp.lambdify(t, expr, modules="mpmath")
        s = np.linspace(-0.95, 0.95, 39)
        with mpmath.workdps(30):
            ref = np.array([float(ref_fn(mpmath.mpf(float(v)))) for v in s])
        got = kernels.berg_g(n, s)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
        assert kernels.berg_g(n, float(s[7])) == got[7]


    def test_g2_values(self):
        assert abs(kernels.berg_g(2, 0.0) - 0.5) < 1e-14
        assert abs(kernels.berg_g(2, 1.0 - 1e-12) + 1 / (2 * np.pi)) < 1e-5

    def test_g3_value(self):
        assert abs(kernels.berg_g(3, 0.0) - 1.0) < 1e-14

    def test_g4_smoke(self):
        ts = np.linspace(-0.9, 0.9, 181)
        g4 = kernels.berg_g(4, ts)
        assert np.all(np.isfinite(g4))
        # bounded variation under grid refinement
        tv_coarse = np.sum(np.abs(np.diff(kernels.berg_g(4, ts[::2]))))
        tv_fine = np.sum(np.abs(np.diff(g4)))
        assert tv_fine < 2.0 * tv_coarse + 1.0

    def test_dimension_gate(self):
        with pytest.raises(InvalidDimension):
            kernels.berg_g(1, 0.0)
        with pytest.raises(SingularEvaluation):
            kernels.berg_g(3, 1.0)


class TestGamma:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_small_alpha_limit(self, n):
        # I1 ~ h(0)/alpha and omega_{n-1} h(0) = omega_n: gamma ~ alpha/(n(n+1))
        a = 1e-9
        g, _ = kernels.gamma_const_info(n, a)
        assert abs(g * n * (n + 1) / a - 1.0) < 1e-8


    def test_analytic_value_n2_alpha1(self):
        # the 1D reduction evaluates to 1 / (6 pi ln 2) for n=2, alpha=1
        exact = 1.0 / (6 * np.pi * np.log(2))
        g, err = kernels.gamma_const_info(2, 1.0)
        assert abs(g - exact) < 1e-10
        assert err < 1e-8
        assert abs(kernels.gamma_const(2, 1.0) - exact) <= 2e-16 * exact

    def test_gauss_jacobi_matches_adaptive_quadrature(self):
        for n in (2, 3, 4, 5):
            for a in (1e-9, 1e-6, 1e-3, 0.01, 0.25, 0.5, 0.9, 1.0):
                ref, err = kernels.gamma_const_info(n, a)
                gap = abs(kernels.gamma_const(n, a) - ref)
                assert gap <= 1e-13 * ref
                assert gap <= max(err, 1e-14 * ref)

    def test_positive(self):
        for n, a in [(2, 1.0), (2, 0.5), (3, 1.0), (4, 0.7)]:
            assert kernels.gamma_const(n, a) > 0

    def test_monte_carlo_agreement(self):
        for n, a in [(2, 1.0), (2, 0.5), (3, 1.0)]:
            gq = kernels.gamma_const(n, a)
            gm, se = kernels.gamma_monte_carlo(n, a, samples=10**6, seed=42)
            assert abs(gm - gq) / gq < 0.01
            assert abs(gm - gq) < 4 * se

    @pytest.mark.parametrize("n, alpha", [(2, 0.05), (2, 1e-3), (3, 1e-6)])
    def test_monte_carlo_small_alpha(self, n, alpha):
        # pole samples closer to the pole than y resolves, or with rho below
        # the smallest float, keep their exact distance and a finite weight
        gq = kernels.gamma_const(n, alpha)
        for pole in (None, np.random.default_rng(5).standard_normal(n + 1)):
            gm, se = kernels.gamma_monte_carlo(n, alpha, samples=20000, seed=3, pole=pole)
            assert math.isfinite(gm) and 0.0 < se < math.inf
            assert abs(gm - gq) < 4 * se

    def test_pole_invariance(self):
        rng = np.random.default_rng(17)
        pole = rng.standard_normal(3)
        g1, se1 = kernels.gamma_monte_carlo(2, 1.0, samples=10**6, seed=1)
        g2, se2 = kernels.gamma_monte_carlo(2, 1.0, samples=10**6, seed=2, pole=pole)
        assert abs(g1 - g2) < 3 * math.hypot(se1, se2)

    def test_parameter_gate(self):
        with pytest.raises(InvalidParameter):
            kernels.gamma_const(2, 1.5)
        with pytest.raises(InvalidParameter):
            kernels.gamma_const(2, 0.0)
        for samples in (0, -3, 1):
            with pytest.raises(InvalidParameter):
                kernels.gamma_monte_carlo(2, 1.0, samples=samples)


class QuadratureKernelTable:
    """Reference kernel table by direct adaptive quadrature (slow).

    hat_A and hat_B are recovered from hat_omega at c = 0 and at the extreme
    tangential c (c^2 = 1 - s^2), using the exact affine dependence on c^2.
    """

    def __init__(self, params=P2):
        self.params = params
        self.n = params.n

    def omega(self, s):
        return np.vectorize(lambda v: kernels.omega_radial(v, self.params))(s)

    def hat_A(self, s):
        return np.vectorize(lambda v: kernels.hat_omega(v, 0.0, self.params))(s)

    def hat_B(self, s):
        def one(v):
            cmax2 = max(1.0 - v * v, 1e-300)
            lo = kernels.hat_omega(v, 0.0, self.params)
            hi = kernels.hat_omega(v, math.sqrt(cmax2), self.params)
            return (lo - hi) / ((self.n + 1) * cmax2)

        return np.vectorize(one)(s)

    def hat(self, s, c2):
        return np.vectorize(
            lambda v, w: kernels.hat_omega(v, math.sqrt(max(w, 0.0)), self.params)
        )(s, c2)


class TestTables:
    def test_closed_table_matches_quadrature_table(self):
        ct = kernels.ClosedFormKernelTable()
        qt = QuadratureKernelTable()
        for s in (-0.8, -0.2, 0.3, 0.9):
            assert abs(ct.omega(s) - qt.omega(s)) < 1e-8
            assert abs(ct.hat_A(s) - qt.hat_A(s)) < 1e-9
            assert abs(ct.hat_B(s) - qt.hat_B(s)) < 1e-9
            c2 = 0.5 * (1 - s * s)
            assert abs(ct.hat(s, c2) - qt.hat(s, c2)) < 1e-9
