import ast
from pathlib import Path

import numpy as np
import pytest

import christoffel
from christoffel import body, convexity, harmonics, lp, sphere
from christoffel.errors import InvalidParameter, NonConvergence, PositivityLost

from conftest import (
    constant_field,
    dense_eigenpair,
    harmonic_field,
    random_positive_field,
    rotate_about_z,
)

import offgrid


def ellipsoid_field(grid, L_max, axes):
    """Curvature data of the ellipsoid, as the ``family:ellipsoid`` source."""
    u = body.support_function(body.Ellipsoid(*axes), grid, L_max)
    return body.forward_f(u)


def turned_solutions(f, p, steps, tol):
    """u of f turned about the z-axis by each of ``steps`` azimuth steps,
    turned back onto the nodes of u(f): (lambdas, u at node 0 of each
    solve, u values (len(steps), L, 2L)).  Every solve starts from v = 1
    and normalizes v to mean 1; both are invariant under the turn, so each
    turned solve takes the same Newton path up to rounding."""
    grid = f.grid
    lams, node0, us = [], [], []
    for k in steps:
        g = harmonics.synthesize(
            rotate_about_z(f.coeffs, 2 * np.pi * k / grid.azimuth_count), grid)
        sol = lp.solve_lp(g, p, tol=tol)
        lams.append(sol.lam)
        node0.append(sol.u.values[0])
        us.append(np.roll(sol.u.values.reshape(grid.L, -1), -k, axis=1))
    return lams, np.array(node0), np.array(us)


def scattered_residual_inf(sol, f, grid):
    """max |(Laplacian + 2) u - (lambda) f u^(p-1)| over the nodes of grid,
    every factor evaluated point by point from its coefficients."""
    nodes = grid.nodes
    uc = sol.u.coeffs
    lap2 = offgrid.synthesize_at(uc.apply_operator(), nodes)
    uv = offgrid.synthesize_at(uc, nodes)
    fv = offgrid.synthesize_at(f.coeffs, nodes)
    scale = 1.0 if sol.lam is None else sol.lam
    return float(np.max(np.abs(lap2 - scale * fv * uv ** (sol.p - 1.0))))


class TestSolveLp:
    def test_constant_balance(self, grid24):
        sol = lp.solve_lp(constant_field(grid24, 2.0, L_max=12), 4.0)
        assert np.max(np.abs(sol.u.values - 1.0)) < 1e-12
        assert sol.converged

    def test_constant_scaled(self, grid24):
        # 2u = 8 u^3 has the constant solution u = 1/2
        sol = lp.solve_lp(constant_field(grid24, 8.0, L_max=12), 4.0)
        assert np.max(np.abs(sol.u.values - 0.5)) < 1e-12

    def test_perturbed_with_refined_grid_oracle(self, grid24):
        f = harmonic_field(grid24, 2.0, {(2, 0): 0.1}, L_max=12)
        sol = lp.solve_lp(f, 4.0, tol=1e-9)
        assert sol.residual_inf <= 1e-9
        assert lp.residual_on_refined_grid(sol, f) <= 1e-8
        assert sol.degree1_magnitude <= 1e-8

    def test_scaling_covariance(self, grid24):
        f = harmonic_field(grid24, 2.0, {(2, 1): 0.15}, L_max=12)
        sol = lp.solve_lp(f, 4.0, tol=1e-10)
        s = 2.5
        fs = harmonics.SphericalField(
            grid=grid24, values=s * f.values,
            coeffs=harmonics.HarmonicCoeffs(L_max=12, c=s * f.coeffs.c),
        )
        sol_s = lp.solve_lp(fs, 4.0, tol=1e-10)
        assert np.max(np.abs(sol_s.u.values - s ** (-0.5) * sol.u.values)) < 1e-8

    def test_positivity_of_converged(self, grid24):
        rng = np.random.default_rng(31)
        for _ in range(3):
            f = random_positive_field(grid24, rng, amp=0.2, l_max_content=3, L_max=16)
            sol = lp.solve_lp(f, 3.5, tol=1e-9)
            assert np.min(sol.u.values) > 0

    def test_p_gate(self, grid24):
        f = constant_field(grid24, 2.0, L_max=12)
        for p in (1.5, np.nan, np.inf):
            with pytest.raises(InvalidParameter):
                lp.solve_lp(f, p)

    def test_nonconvergence_carries_best(self, grid24, monkeypatch):
        f = harmonic_field(grid24, 2.0, {(2, 0): 0.3}, L_max=12)
        monkeypatch.setattr(lp, "_MAX_NEWTON_STEPS", 2)
        with pytest.raises(NonConvergence) as exc:
            lp.solve_lp(f, 4.0, tol=1e-13)
        best = exc.value.best
        assert best is not None and not best.converged
        assert best.residual_inf > 0

    def test_trace_records_every_iteration(self, grid24):
        f = harmonic_field(grid24, 2.0, {(2, 0): 0.1}, L_max=12)
        sol = lp.solve_lp(f, 4.0, tol=1e-9)
        assert len(sol.trace) == sol.iterations > 0
        assert {t["path"] for t in sol.trace} == {"newton"}
        assert all(t["krylov_iterations"] >= 1 for t in sol.trace)
        residuals = [t["residual_inf"] for t in sol.trace]
        assert all(b < a for a, b in zip(residuals, residuals[1:]))
        assert residuals[-1] == sol.residual_inf

    def test_trace_ends_on_stall(self, grid24):
        # below the band-limit floor of the pointwise residual (1.59e-11,
        # the truncated tail of f u^3) two Newton steps in a row fail to
        # halve the residual, and that stall ends the solve
        f = harmonic_field(grid24, 2.0, {(2, 0): 0.1, (3, 1): 0.05}, L_max=12)
        with pytest.raises(NonConvergence, match=r"\(stall\)") as exc:
            lp.solve_lp(f, 4.0, tol=1e-14)
        trace = exc.value.best.trace
        assert len(trace) == exc.value.best.iterations
        assert {t["path"] for t in trace} == {"newton"}
        residuals = [t["residual_inf"] for t in trace]
        assert all(b > 0.5 * a for a, b in zip(residuals[-3:], residuals[-2:]))
        assert trace[-1]["residual_inf"] == exc.value.best.residual_inf

    def test_iteration_cap_named(self, grid24, monkeypatch):
        f = harmonic_field(grid24, 2.0, {(2, 0): 0.3}, L_max=12)
        monkeypatch.setattr(lp, "_MAX_NEWTON_STEPS", 2)
        with pytest.raises(NonConvergence, match=r"\(iteration cap\)"):
            lp.solve_lp(f, 4.0, tol=1e-13)

    @pytest.mark.parametrize("p, base", [(2.000001, 1.5), (1e308, 2.0)])
    def test_overflowing_start_rejected(self, grid24, p, base):
        # u0 = (2 / mean f)^(1 / (p - 2)) overflows for p just above 2;
        # for huge p, (p - 1) f u0^(p-2) does
        with pytest.raises(InvalidParameter):
            lp.solve_lp(constant_field(grid24, base, L_max=12), p)

    @pytest.mark.parametrize("p, base", [(2.000001, 2.5), (2.0001, 3.0)])
    def test_underflowing_start_rejected(self, grid24, p, base):
        # u0 = (2 / mean f)^(1 / (p - 2)) underflows to 0 for p just above 2
        # and mean f > 2; u = 0 solves the equation, so it must not pass
        with pytest.raises(InvalidParameter):
            lp.solve_lp(constant_field(grid24, base, L_max=12), p)

    def test_underflowing_scale_stops_newton(self, grid24, monkeypatch):
        # a step that drives lambda^(1/(p-2)) past overflow (1/s to 0) is
        # not finite: it ends the solve before any division by 1/s
        f = harmonic_field(grid24, 2.0, {(2, 0): 0.1}, L_max=12)
        K = f.coeffs.c.size

        def raise_lambda(matvec, b, precond, rtol):
            step = np.zeros(K + 1)
            step[K] = 100.0
            return step, 1, True

        monkeypatch.setattr(lp, "_gmres", raise_lambda)
        with pytest.raises(NonConvergence, match=r"\(non-finite step\)") as exc:
            lp.solve_lp(f, 2.001)
        assert exc.value.best.iterations == 0

    @pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0, np.inf])
    def test_bad_tol_rejected(self, grid24, tol):
        f = constant_field(grid24, 2.0, L_max=12)
        with pytest.raises(InvalidParameter):
            lp.solve_lp(f, 4.0, tol=tol)
        with pytest.raises(InvalidParameter):
            lp.solve_lp_eigen(f, tol=tol)

    def test_insensitive_to_initial_guess(self, grid24):
        # each turned field is solved afresh from v = 1 (u at node 0 differs
        # from turn to turn, so the turns are not trivial): all of them reach
        # the same u, turned
        f = harmonic_field(grid24, 2.0, {(2, 0): 0.1, (3, 1): 0.1, (2, -2): 0.05}, L_max=16)
        _, node0, us = turned_solutions(f, 4.0, (0, 3, 7, 12, 20), tol=1e-11)
        assert np.ptp(node0) > 1e-3
        for u in us[1:]:
            assert np.max(np.abs(u - us[0])) < 1e-9

    def test_zero_collapse_guarded(self, grid24, monkeypatch):
        # u = 0 solves the equation, but v is normalized to mean 1: f scaled
        # by 1e4 has the small solution u = 1e-2 u(f) (u scales as f^(-1/2) at
        # p = 4), which the solve reaches; a Newton step that leaves v not
        # positive is refused
        f = harmonic_field(grid24, 2.0, {(2, 0): 0.1}, L_max=16)
        ref = lp.solve_lp(f, 4.0, tol=1e-11)
        big = harmonics.SphericalField(
            grid=grid24, values=1e4 * f.values,
            coeffs=harmonics.HarmonicCoeffs(L_max=16, c=1e4 * f.coeffs.c))
        small = lp.solve_lp(big, 4.0, tol=1e-13)
        assert np.min(small.u.values) > 0
        assert np.max(np.abs(1e2 * small.u.values - ref.u.values)) < 1e-9

        def flip_sign(matvec, b, precond, rtol):
            step = np.zeros_like(b)
            step[0] = -2.0 * np.sqrt(4.0 * np.pi)  # v = 1 becomes v = -1
            return step, 1, True

        monkeypatch.setattr(lp, "_gmres", flip_sign)
        with pytest.raises(PositivityLost, match="Newton iterate 1"):
            lp.solve_lp(f, 4.0)

    @pytest.mark.parametrize("p", [2.01, 2.05, 2.1])
    def test_converges_near_p_2(self, grid48, p):
        # the l = 0 entry 2 - 2 (p - 1) of a mean-field Jacobian in u
        # vanishes as p -> 2; the scaled problem in (v, lambda) keeps it
        # bordered, so Newton converges just above p = 2 as at p = 2
        f = harmonics.synthesize(
            body.HarmonicBump(l=6, m=6, eps=1.5, base=2.0).coeffs(32), grid48)
        sol = lp.solve_lp(f, p)
        assert sol.converged and sol.residual_inf <= 1e-8
        assert np.min(sol.u.values) > 0
        assert lp.check_lemma41(sol, f)[0]


class TestEigen:
    def test_constant_unit(self, grid24):
        sol = lp.solve_lp_eigen(constant_field(grid24, 1.0, L_max=12))
        assert abs(sol.lam - 2.0) < 1e-12
        assert np.max(np.abs(sol.u.values - 1.0)) < 1e-12

    def test_constant_general(self, grid24):
        sol = lp.solve_lp_eigen(constant_field(grid24, 5.0, L_max=12))
        assert abs(sol.lam - 0.4) < 1e-12
        assert np.max(np.abs(sol.u.values - 1.0)) < 1e-12

    def test_perturbed_bounds_and_normalization(self, grid24):
        f = harmonic_field(grid24, 1.0, {(2, 0): 0.05}, L_max=12)
        sol = lp.solve_lp_eigen(f, tol=1e-10)
        assert sol.residual_inf <= 1e-10
        assert np.min(sol.u.values) > 0
        assert abs(np.max(sol.u.values) - 1.0) < 1e-12
        assert 2.0 / np.max(f.values) - 1e-9 <= sol.lam <= 2.0 / np.min(f.values) + 1e-9

    def test_lambda_scaling(self, grid24):
        f = harmonic_field(grid24, 1.0, {(2, 1): 0.04}, L_max=12)
        sol = lp.solve_lp_eigen(f, tol=1e-11)
        s = 3.0
        fs = harmonics.SphericalField(
            grid=grid24, values=s * f.values,
            coeffs=harmonics.HarmonicCoeffs(L_max=12, c=s * f.coeffs.c),
        )
        sol_s = lp.solve_lp_eigen(fs, tol=1e-11)
        assert abs(sol_s.lam - sol.lam / s) < 1e-9

    def test_dilation_freedom(self, grid24):
        # u and 2u solve the same problem: Newton picks the multiple of the
        # eigenfunction with mean v = 1, and the reported u is rescaled to
        # max u = 1 for every turned field
        f = harmonic_field(grid24, 1.0, {(2, 0): 0.05, (3, 1): 0.05}, L_max=12)
        lams, node0, us = turned_solutions(f, 2.0, (0, 5, 11, 17), tol=1e-10)
        assert np.ptp(node0) > 1e-3
        for lam, u in zip(lams[1:], us[1:]):
            assert abs(lam - lams[0]) < 1e-9
            assert np.max(np.abs(u - us[0])) < 1e-8
        assert np.max(np.abs(np.max(us, axis=(1, 2)) - 1.0)) < 1e-12

    def test_newton_matches_dense_eigh(self, grid24, grid48):
        cases = [
            (harmonic_field(grid24, 1.0, {(2, 0): 0.05, (3, 1): 0.03, (4, -2): 0.02}, L_max=12),
             1e-10),
            # anisotropic: the band-limit floor of its grid residual is 3.5e-8
            (ellipsoid_field(grid48, 32, (0.8, 1.2, 1.6)), 1e-7),
        ]
        for f, tol in cases:
            newton = lp.solve_lp_eigen(f, tol=tol)
            lam, uv = dense_eigenpair(f)
            assert [t["path"] for t in newton.trace] == ["newton"] * newton.iterations
            assert all(t["krylov_iterations"] >= 1 for t in newton.trace)
            assert abs(lam - newton.lam) < 1e-9
            assert np.max(np.abs(uv - newton.u.values)) < 1e-9

    def test_preconditioner_inverts_mean_field_matrix(self):
        rng = np.random.default_rng(7)
        K = 16
        D = harmonics.operator_diagonal(3)
        fbar, lam = 1.3, 2.0 / 1.3  # d[0] = 0, as at the Newton start
        c = rng.normal(size=K)
        A = np.zeros((K + 1, K + 1))
        A[:K, :K] = np.diag(D - lam * fbar)
        A[:K, K] = -fbar * c
        A[K, 0] = 1.0  # the border reads c_0 = sqrt(4 pi) mean v
        apply = lp._mean_field_inverse(D - lam * fbar, fbar * c)
        inv = np.column_stack([apply(e) for e in np.eye(K + 1)])
        assert np.max(np.abs(inv @ A - np.eye(K + 1))) < 1e-12

    def test_krylov_failure_raises_with_best(self, grid24, monkeypatch):
        f = harmonic_field(grid24, 1.0, {(2, 0): 0.05, (3, 1): 0.03}, L_max=12)
        real_gmres = lp._gmres
        calls = []

        def fail_second(matvec, b, precond, rtol):
            calls.append(1)
            if len(calls) == 1:
                return real_gmres(matvec, b, precond, rtol)
            return np.zeros_like(b), 0, False

        monkeypatch.setattr(lp, "_gmres", fail_second)
        with pytest.raises(NonConvergence, match=r"\(Krylov failure\)") as exc:
            lp.solve_lp_eigen(f, tol=1e-10)
        best = exc.value.best
        # the one completed Newton step is the best iterate, for max u = 1:
        # the same one a cap of one step returns
        assert best.iterations == len(best.trace) == 1
        assert best.trace[-1]["residual_inf"] == best.residual_inf > 1e-10
        assert np.max(best.u.values) == 1.0
        monkeypatch.setattr(lp, "_gmres", real_gmres)
        monkeypatch.setattr(lp, "_MAX_NEWTON_STEPS", 1)
        with pytest.raises(NonConvergence, match=r"\(iteration cap\)") as cap:
            lp.solve_lp_eigen(f, tol=1e-10)
        assert best.lam == cap.value.best.lam
        assert np.array_equal(best.u.values, cap.value.best.u.values)

    def test_fallback_trace_in_reported_normalization(self, grid48):
        # the band-limit floor of this field's grid residual (3.5e-8) lies
        # above the default tol, so Newton stops short of it; the last
        # trace entry describes the returned u, normalized to max u = 1
        f = ellipsoid_field(grid48, 32, (0.8, 1.2, 1.6))
        with pytest.raises(NonConvergence) as exc:
            lp.solve_lp_eigen(f)
        best = exc.value.best
        assert best.trace[-1]["path"] == "newton"
        assert best.trace[-1]["residual_inf"] == best.residual_inf
        assert np.max(best.u.values) == 1.0

    def test_stops_in_reported_normalization(self, grid24):
        # the loop tests the residual for max u = 1, the traced one: a tol
        # just above step k's traced residual ends the solve at step k
        f = harmonic_field(grid24, 1.0, {(2, 0): 0.05, (3, 1): 0.03}, L_max=12)
        trace = lp.solve_lp_eigen(f, tol=1e-10).trace
        assert len(trace) >= 2
        for k, entry in enumerate(trace, start=1):
            sol = lp.solve_lp_eigen(f, tol=1.01 * entry["residual_inf"])
            assert sol.iterations == k

    def test_newton_trace_in_reported_normalization(self, grid24):
        # Newton normalizes v to mean 1; its trace entries are rescaled to the
        # returned max u = 1, so the last one is the reported residual
        f = harmonic_field(grid24, 1.0, {(2, 0): 0.05, (3, 1): 0.03}, L_max=12)
        sol = lp.solve_lp_eigen(f, tol=1e-10)
        assert sol.trace[-1]["path"] == "newton"
        assert abs(sol.trace[-1]["residual_inf"] - sol.residual_inf) <= 1e-15 * sol.residual_inf

    def test_stall_leaves_newton_early(self, grid48):
        # at (48, 32) the grid residual of this ellipsoid has a band-limit
        # floor of 6.8e-4: Newton reaches it in three steps, then stalls,
        # and the stall ends the solve
        f = ellipsoid_field(grid48, 32, (0.5, 1.0, 2.0))
        with pytest.raises(NonConvergence, match=r"\(stall\)") as exc:
            lp.solve_lp_eigen(f)
        best = exc.value.best
        paths = [t["path"] for t in best.trace]
        assert paths == ["newton"] * best.iterations
        # three steps to the floor, then two that fail to halve the residual
        assert len(paths) <= 5
        residuals = [t["residual_inf"] for t in best.trace]
        assert all(b > 0.5 * a for a, b in zip(residuals[-3:], residuals[-2:]))
        assert abs(best.lam - dense_eigenpair(f)[0]) < 1e-9
        assert abs(best.lam - 0.9307101208137644) < 1e-12
        assert abs(best.residual_inf - 6.836257935815092e-4) < 1e-14

    def test_lambda_bounds_on_seeded_fields(self, grid24):
        rng = np.random.default_rng(33)
        for _ in range(5):
            f = random_positive_field(grid24, rng, base=1.0, amp=0.1, l_max_content=3, L_max=16)
            sol = lp.solve_lp_eigen(f, tol=1e-9)
            assert 2.0 / np.max(f.values) - 1e-9 <= sol.lam <= 2.0 / np.min(f.values) + 1e-9


def imported_modules(tree):
    """Dotted names of every module an ``import`` in ``tree`` loads, with
    ``from a import b`` counted as a.b."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_no_dense_path_in_package():
    # the L_p solver forms no K x K matrix and its GMRES is numpy: no
    # module imports SciPy, and the Galerkin matrix lives only in the tests
    sources = sorted(Path(christoffel.__file__).parent.glob("*.py"))
    assert any(path.name == "lp.py" for path in sources)
    scipy_imports = [f"{path.name}: {name}" for path in sources
                     for name in imported_modules(ast.parse(path.read_text(encoding="utf-8")))
                     if name == "scipy" or name.startswith("scipy.")]
    assert scipy_imports == []
    assert not hasattr(harmonics, "galerkin_matrix")


class TestGmres:
    @staticmethod
    def system(n=40, seed=3):
        """A nonsymmetric, diagonally dominated system and its Jacobi
        preconditioner."""
        rng = np.random.default_rng(seed)
        A = np.diag(np.linspace(1.0, 50.0, n)) + rng.normal(scale=0.5, size=(n, n))
        return A, rng.normal(size=n), (lambda y, d=np.diag(A): y / d)

    def test_matches_direct_solve(self):
        A, b, jacobi = self.system()
        x, iterations, converged = lp._gmres(lambda v: A @ v, b, jacobi, 1e-12)
        assert converged and 1 <= iterations <= b.size
        assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b) * 1.01
        assert np.max(np.abs(x - np.linalg.solve(A, b))) < 1e-10

    def test_reports_failure_after_max_iter(self, monkeypatch):
        monkeypatch.setattr(lp, "_KRYLOV_MAX_ITER", 2)
        A, b, _ = self.system()
        x, iterations, converged = lp._gmres(lambda v: A @ v, b, lambda y: y, 1e-12)
        assert not converged and iterations == 2
        assert np.all(np.isfinite(x))

    def test_matches_scipy_reference(self):
        from scipy.sparse.linalg import LinearOperator, gmres

        A, b, jacobi = self.system(n=60, seed=5)
        x, _, converged = lp._gmres(lambda v: A @ v, b, jacobi, 1e-12)
        ref, info = gmres(A, b, rtol=1e-12, restart=80,
                          M=LinearOperator(A.shape, matvec=jacobi, dtype=float))
        assert converged and info == 0
        assert np.max(np.abs(x - ref)) < 1e-10 * np.max(np.abs(ref))


class TestRefinedResidual:
    @pytest.mark.parametrize("L", [12, 13])
    def test_matches_scattered_evaluation(self, L):
        grid = sphere.make_grid(L)
        f = harmonic_field(grid, 2.0, {(2, 0): 0.1, (3, 1): 0.05}, L_max=8)
        grid2 = sphere.make_grid(2 * L)
        # tolerances above the band-limit floors (1.4e-7 and 1.3e-8)
        for sol in (lp.solve_lp(f, 4.0, tol=1e-6), lp.solve_lp_eigen(f, tol=1e-7)):
            ref = scattered_residual_inf(sol, f, grid2)
            new = lp.residual_on_refined_grid(sol, f)
            assert abs(new - ref) <= 1e-12 * np.max(np.abs(f.values))
            assert ref > 0.0


class TestGradientBound:
    def test_constant_equality(self, grid24):
        f = constant_field(grid24, 2.0, L_max=12)
        sol = lp.solve_lp(f, 4.0)
        holds, lhs, rhs = lp.check_lemma41(sol, f)
        assert holds and lhs < 1e-10 and rhs < 1e-10

    def test_unconditional_on_suite(self, grid24):
        rng = np.random.default_rng(35)
        for p in (3.0, 4.0):
            for _ in range(3):
                f = random_positive_field(grid24, rng, amp=0.15, l_max_content=3, L_max=16)
                sol = lp.solve_lp(f, p, tol=1e-9)
                holds, lhs, rhs = lp.check_lemma41(sol, f)
                assert holds, (lhs, rhs)

    def test_eigen_case_lambda_invariant(self, grid24):
        f = harmonic_field(grid24, 1.0, {(2, 0): 0.05}, L_max=12)
        sol = lp.solve_lp_eigen(f, tol=1e-9)
        holds, lhs, rhs = lp.check_lemma41(sol, f)
        assert holds


class TestT41Condition:
    def test_constant_holds(self, grid24):
        f = constant_field(grid24, 2.0, L_max=12)
        holds, lhs, rhs = lp.check_T41_cond(f, 4.0)
        assert holds and lhs == 0.0

    def test_monotone_in_gradient(self, grid24):
        lhs_vals = []
        for eps in (0.005, 0.01, 0.02):
            f = harmonic_field(grid24, 2.0, {(2, 0): eps}, L_max=12)
            _, lhs, _ = lp.check_T41_cond(f, 4.0)
            lhs_vals.append(lhs)
        assert lhs_vals[0] < lhs_vals[1] < lhs_vals[2]

    def test_holds_implies_convex_solution(self, grid24):
        f = harmonic_field(grid24, 2.0, {(2, 0): 0.012}, L_max=12)
        holds, lhs, rhs = lp.check_T41_cond(f, 4.0)
        assert holds, (lhs, rhs)
        sol = lp.solve_lp(f, 4.0, tol=1e-10)
        assert convexity.hessian_min(sol.u)[0] >= -1e-6

    def test_p_gate(self, grid24):
        with pytest.raises(InvalidParameter):
            lp.check_T41_cond(constant_field(grid24, 2.0, L_max=12), 1.5)
