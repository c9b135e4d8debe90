import numpy as np
import pytest

from christoffel import body, convexity, harmonics, lp, sphere
from christoffel.errors import InvalidParameter, NonConvergence

from conftest import constant_field, harmonic_field, random_positive_field


def ellipsoid_field(grid, L_max, axes):
    """Curvature data of the ellipsoid, as the ``family:ellipsoid`` source."""
    u = body.support_function(body.Ellipsoid(*axes), grid, L_max)
    return body.forward_f(u)


def scattered_residual_inf(sol, f, grid):
    """max |(Laplacian + 2) u - (lambda) f u^(p-1)| over the nodes of grid,
    every factor evaluated point by point from its coefficients."""
    nodes = grid.nodes
    uc = sol.u.coeffs
    lap2 = harmonics.synthesize_at(uc.apply_operator(), nodes)
    uv = harmonics.synthesize_at(uc, nodes)
    fv = harmonics.synthesize_at(f.coeffs, nodes)
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
        with pytest.raises(InvalidParameter):
            lp.solve_lp(f, 2.0)
        with pytest.raises(InvalidParameter):
            lp.solve_lp(f, 1.5)

    def test_nonconvergence_carries_best(self, grid24):
        f = harmonic_field(grid24, 2.0, {(2, 0): 0.3}, L_max=12)
        with pytest.raises(NonConvergence) as exc:
            lp.solve_lp(f, 4.0, tol=1e-13, max_iter=2)
        best = exc.value.best
        assert best is not None and not best.converged
        assert best.residual_inf > 0

    def test_trace_records_every_iteration(self, grid24):
        f = harmonic_field(grid24, 2.0, {(2, 0): 0.1}, L_max=12)
        sol = lp.solve_lp(f, 4.0, tol=1e-9)
        assert len(sol.trace) == sol.iterations > 0
        assert {t["path"] for t in sol.trace} == {"quasi_newton"}
        residuals = [t["residual_inf"] for t in sol.trace]
        assert all(b < a for a, b in zip(residuals, residuals[1:]))
        assert residuals[-1] == sol.residual_inf

    def test_trace_shows_dense_fallback(self, grid24):
        # below the band-limit floor of the pointwise residual the
        # quasi-Newton step stalls, the dense Jacobian runs and stalls too
        f = harmonic_field(grid24, 2.0, {(2, 0): 0.1, (3, 1): 0.05}, L_max=12)
        with pytest.raises(NonConvergence) as exc:
            lp.solve_lp(f, 4.0, tol=1e-14)
        trace = exc.value.best.trace
        assert len(trace) == exc.value.best.iterations
        assert trace[-1]["path"] == "dense"
        assert trace[-2]["path"] == "quasi_newton" and trace[-2]["step_scale"] == 0.0

    def test_insensitive_to_initial_guess(self, grid24):
        f = harmonic_field(grid24, 2.0, {(2, 0): 0.1}, L_max=16)
        sols = [
            lp.solve_lp(f, 4.0, tol=1e-11, initial=g).u.values
            for g in (0.8, 0.9, 1.0, 1.3, 2.0)
        ]
        for s in sols[1:]:
            assert np.max(np.abs(s - sols[0])) < 1e-9

    def test_zero_collapse_guarded(self, grid24):
        # u = 0 solves the equation; a start below the Newton separatrix must
        # be rejected rather than returned as a "solution"
        from christoffel.errors import PositivityLost

        f = harmonic_field(grid24, 2.0, {(2, 0): 0.1}, L_max=16)
        with pytest.raises(PositivityLost):
            lp.solve_lp(f, 4.0, tol=1e-11, initial=0.4)


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
        # u and 2u solve the same problem; normalization picks max u = 1
        f = harmonic_field(grid24, 1.0, {(2, 0): 0.05}, L_max=12)
        a = lp.solve_lp_eigen(f, tol=1e-10)
        b = lp.solve_lp_eigen(f, tol=1e-10, initial=2.0 * a.u.coeffs.c)
        assert abs(a.lam - b.lam) < 1e-9
        assert np.max(np.abs(a.u.values - b.u.values)) < 1e-8

    def test_eigh_fallback_matches_newton(self, grid24, grid48):
        cases = [
            (harmonic_field(grid24, 1.0, {(2, 0): 0.05, (3, 1): 0.03, (4, -2): 0.02}, L_max=12),
             1e-10),
            # anisotropic: the band-limit floor of its grid residual is 3.5e-8
            (ellipsoid_field(grid48, 32, (0.8, 1.2, 1.6)), 1e-7),
        ]
        for f, tol in cases:
            newton = lp.solve_lp_eigen(f, tol=tol)
            dense = lp.solve_lp_eigen(f, tol=tol, max_iter=0)
            assert [t["path"] for t in newton.trace] == ["newton"] * newton.iterations
            assert [t["path"] for t in dense.trace] == ["eigh_fallback"]
            assert abs(dense.lam - newton.lam) < 1e-9
            assert np.max(np.abs(dense.u.values - newton.u.values)) < 1e-9

    def test_preconditioner_inverts_mean_field_matrix(self):
        rng = np.random.default_rng(7)
        K = 16
        D = harmonics.operator_diagonal(3)
        fbar, lam = 1.3, 2.0 / 1.3  # d[0] = 0, as at the Newton start
        c, pin = rng.normal(size=K), rng.normal(size=K)
        A = np.zeros((K + 1, K + 1))
        A[:K, :K] = np.diag(D - lam * fbar)
        A[:K, K] = -fbar * c
        A[K, :K] = pin
        apply = lp._mean_field_inverse(D - lam * fbar, fbar * c, pin)
        inv = np.column_stack([apply(e) for e in np.eye(K + 1)])
        assert np.max(np.abs(inv @ A - np.eye(K + 1))) < 1e-12

    def test_newton_path_never_assembles_galerkin(self, grid24, grid48, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Galerkin matrix assembled on the Newton path")

        monkeypatch.setattr(harmonics, "galerkin_matrix", refuse)
        for f, tol in [
            (harmonic_field(grid24, 1.0, {(2, 0): 0.05, (3, 1): 0.03}, L_max=12), 1e-10),
            (ellipsoid_field(grid48, 32, (0.8, 1.2, 1.6)), 1e-7),
        ]:
            sol = lp.solve_lp_eigen(f, tol=tol)
            assert sol.converged
            assert [t["path"] for t in sol.trace] == ["newton"] * sol.iterations
            assert all(t["krylov_iterations"] >= 1 for t in sol.trace)

    def test_krylov_failure_falls_back(self, grid24, monkeypatch):
        import scipy.sparse.linalg

        f = harmonic_field(grid24, 1.0, {(2, 0): 0.05, (3, 1): 0.03}, L_max=12)
        newton = lp.solve_lp_eigen(f, tol=1e-10)
        monkeypatch.setattr(
            scipy.sparse.linalg, "gmres", lambda A, b, **kwargs: (np.zeros_like(b), 1)
        )
        sol = lp.solve_lp_eigen(f, tol=1e-10)
        assert [t["path"] for t in sol.trace] == ["eigh_fallback"]
        assert abs(sol.lam - newton.lam) < 1e-9
        assert np.max(np.abs(sol.u.values - newton.u.values)) < 1e-9

    def test_fallback_trace_in_reported_normalization(self, grid48):
        # the band-limit floor of this field's grid residual (3.5e-8) lies
        # above the default tol, so the dense eigensolver decides; its trace
        # entry must describe the returned u, normalized to max u = 1
        f = ellipsoid_field(grid48, 32, (0.8, 1.2, 1.6))
        with pytest.raises(NonConvergence) as exc:
            lp.solve_lp_eigen(f)
        best = exc.value.best
        assert best.trace[-1]["path"] == "eigh_fallback"
        assert best.trace[-1]["residual_inf"] == best.residual_inf

    def test_newton_trace_in_reported_normalization(self, grid24):
        # Newton pins u at one node; its trace entries are rescaled to the
        # returned max u = 1, so the last one is the reported residual
        f = harmonic_field(grid24, 1.0, {(2, 0): 0.05, (3, 1): 0.03}, L_max=12)
        sol = lp.solve_lp_eigen(f, tol=1e-10)
        assert sol.trace[-1]["path"] == "newton"
        assert abs(sol.trace[-1]["residual_inf"] - sol.residual_inf) <= 1e-15 * sol.residual_inf

    def test_stall_leaves_newton_early(self, grid48):
        # at (48, 32) the grid residual of this ellipsoid has a band-limit
        # floor of 6.8e-4: Newton reaches it in three steps, then stalls,
        # and the dense eigensolver decides as it did after 60 steps
        f = ellipsoid_field(grid48, 32, (0.5, 1.0, 2.0))
        with pytest.raises(NonConvergence) as exc:
            lp.solve_lp_eigen(f)
        best = exc.value.best
        paths = [t["path"] for t in best.trace]
        n_newton = len(paths) - 1
        assert paths == ["newton"] * n_newton + ["eigh_fallback"]
        # three steps to the floor, then two that fail to halve the residual
        assert n_newton <= 5
        residuals = [t["residual_inf"] for t in best.trace[:-1]]
        assert all(b > 0.5 * a for a, b in zip(residuals[-3:], residuals[-2:]))
        assert abs(best.lam - 0.9307101208137636) < 1e-12
        assert abs(best.residual_inf - 6.836257936320145e-4) < 1e-14

    def test_lambda_bounds_on_seeded_fields(self, grid24):
        rng = np.random.default_rng(33)
        for _ in range(5):
            f = random_positive_field(grid24, rng, base=1.0, amp=0.1, l_max_content=3, L_max=16)
            sol = lp.solve_lp_eigen(f, tol=1e-9)
            assert 2.0 / np.max(f.values) - 1e-9 <= sol.lam <= 2.0 / np.min(f.values) + 1e-9


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
