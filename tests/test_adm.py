import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dantzig_adm.adm as adm_module
from dantzig_adm.adm import (
    AdmConfig,
    augmented_lagrangian,
    dual_infeasibility,
    dual_objective,
    solve,
    stopping_metric,
    update_lambda,
    update_z,
)
from dantzig_adm.core import Instance, apply_gram
from dantzig_adm.subsolver import SubsolverConfig, SubsolverResult

from oracles import (
    box_lagrangian_scalar,
    dense_gram,
    lp_dual_enumeration,
    lp_primal_enumeration,
    random_instance_arrays,
)


def _instance(rng, n=6, p=10, delta_scale=0.5):
    X, y, delta = random_instance_arrays(rng, n, p, delta_scale)
    return Instance(X=X, y=y, delta=delta)


class TestAugmentedLagrangian:
    def test_vanishes_at_slack_kernel_point(self):
        rng = np.random.default_rng(0)
        inst = _instance(rng)
        z = -(inst.X.T @ inst.y)
        value = augmented_lagrangian(inst, z, np.zeros(inst.p), np.zeros(inst.p), 2.0)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_reduces_to_quadratic_penalty(self):
        rng = np.random.default_rng(1)
        inst = _instance(rng)
        z = rng.standard_normal(inst.p)
        mu = 1.7
        value = augmented_lagrangian(inst, z, np.zeros(inst.p), np.zeros(inst.p), mu)
        expected = 0.5 * mu * np.linalg.norm(inst.X.T @ inst.y + z) ** 2
        assert value == pytest.approx(expected, rel=1e-12)

    def test_matches_independent_dense_evaluation(self):
        rng = np.random.default_rng(2)
        inst = _instance(rng)
        beta = rng.standard_normal(inst.p)
        z = rng.standard_normal(inst.p)
        lam = rng.standard_normal(inst.p)
        mu = 0.9
        value = augmented_lagrangian(inst, z, beta, lam, mu)
        r = dense_gram(inst.X) @ beta - inst.X.T @ inst.y - z
        expected = np.abs(beta).sum() + lam @ r + 0.5 * mu * (r @ r)
        assert value == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(3)
        inst = _instance(rng)
        with pytest.raises(ValueError):
            augmented_lagrangian(inst, np.zeros(inst.p + 1), np.zeros(inst.p), np.zeros(inst.p), 1.0)


class TestUpdateZ:
    def test_interior_case_returns_negated_correlation(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((5, 8))
        y = rng.standard_normal(5)
        d = np.linalg.norm(X, axis=0)
        delta = 1.1 * np.abs((X.T @ y) / d).max()
        inst = Instance(X=X, y=y, delta=delta)
        z = update_z(inst, np.zeros(8), np.zeros(8), 1.0)
        assert np.allclose(z, -(X.T @ y), atol=1e-12)

    def test_huge_delta_leaves_target_unclipped(self):
        rng = np.random.default_rng(5)
        X, y, _ = random_instance_arrays(rng, 5, 8)
        inst = Instance(X=X, y=y, delta=1e12)
        beta = rng.standard_normal(8)
        lam = rng.standard_normal(8)
        mu = 2.0
        z = update_z(inst, beta, lam, mu)
        expected = dense_gram(X) @ beta - X.T @ y + lam / mu
        assert np.allclose(z, expected, rtol=1e-10)

    def test_matches_per_coordinate_minimization_oracle(self):
        rng = np.random.default_rng(6)
        inst = _instance(rng, n=6, p=10)
        beta = rng.standard_normal(10)
        lam = rng.standard_normal(10)
        mu = 1.3
        z = update_z(inst, beta, lam, mu)
        w = dense_gram(inst.X) @ beta - inst.X.T @ inst.y
        bound = inst.delta * inst.d
        expected = np.array(
            [
                box_lagrangian_scalar(w[j], lam[j], mu, bound[j])
                for j in range(inst.p)
            ]
        )
        assert np.allclose(z, expected, atol=1e-7)

    def test_minimizes_lagrangian_over_random_feasible_points(self):
        rng = np.random.default_rng(7)
        inst = _instance(rng, n=5, p=8)
        beta = rng.standard_normal(8)
        lam = rng.standard_normal(8)
        mu = 0.8
        z_star = update_z(inst, beta, lam, mu)
        base = augmented_lagrangian(inst, z_star, beta, lam, mu)
        bound = inst.delta * inst.d
        for _ in range(100):
            z = rng.uniform(-bound, bound)
            assert base <= augmented_lagrangian(inst, z, beta, lam, mu) + 1e-10

    def test_feasibility_of_output(self):
        rng = np.random.default_rng(8)
        inst = _instance(rng)
        z = update_z(inst, rng.standard_normal(inst.p), rng.standard_normal(inst.p), 1.0)
        assert np.all(np.abs(z / inst.d) <= inst.delta * (1 + 1e-12))


class TestDualObjective:
    def test_zero_multiplier(self):
        rng = np.random.default_rng(9)
        inst = _instance(rng)
        assert dual_objective(inst, np.zeros(inst.p)) == 0.0

    def test_delta_term_separates(self):
        # subtracting the delta term must leave exactly -y^T X lambda
        rng = np.random.default_rng(10)
        inst = _instance(rng)
        lam = rng.standard_normal(inst.p)
        linear = -float(inst.y @ (inst.X @ lam))
        value = dual_objective(inst, lam)
        assert value + inst.delta * float(inst.d @ np.abs(lam)) == pytest.approx(
            linear, rel=1e-12, abs=1e-12
        )

    def test_matches_independent_dense_evaluation(self):
        rng = np.random.default_rng(11)
        inst = _instance(rng)
        lam = rng.standard_normal(inst.p)
        D = np.diag(np.linalg.norm(inst.X, axis=0))
        expected = -inst.y @ inst.X @ lam - inst.delta * np.abs(D @ lam).sum()
        assert dual_objective(inst, lam) == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(12)
        inst = _instance(rng)
        with pytest.raises(ValueError):
            dual_objective(inst, np.zeros(inst.p + 2))


class TestDualInfeasibility:
    def test_zero_multiplier(self):
        rng = np.random.default_rng(13)
        inst = _instance(rng)
        assert dual_infeasibility(inst, np.zeros(inst.p)) == -1.0

    def test_orthogonal_square_design(self):
        q, _ = np.linalg.qr(np.random.default_rng(14).standard_normal((5, 5)))
        inst = Instance(X=q, y=np.zeros(5), delta=1.0)
        e1 = np.zeros(5)
        e1[0] = 1.0
        assert dual_infeasibility(inst, e1) == pytest.approx(0.0, abs=1e-12)

    def test_matches_dense_gram(self):
        rng = np.random.default_rng(15)
        inst = _instance(rng)
        lam = rng.standard_normal(inst.p)
        expected = np.abs(dense_gram(inst.X) @ lam).max() - 1.0
        assert dual_infeasibility(inst, lam) == pytest.approx(expected, rel=1e-10)


class TestStoppingMetric:
    def test_degenerate_zero_data(self):
        X = np.eye(4)
        inst = Instance(X=X, y=np.zeros(4), delta=0.5)
        assert stopping_metric(inst, np.zeros(4), np.zeros(4)) == 0.0

    def test_small_at_enumerated_optimal_pair(self):
        rng = np.random.default_rng(16)
        for _ in range(3):
            X, y, delta = random_instance_arrays(rng, 3, 5, delta_scale=0.4)
            inst = Instance(X=X, y=y, delta=delta)
            _, beta_star = lp_primal_enumeration(X, y, delta)
            _, lam_star = lp_dual_enumeration(X, y, delta)
            assert stopping_metric(inst, beta_star, lam_star) <= 1e-8

    def test_matches_term_by_term_evaluation(self):
        rng = np.random.default_rng(17)
        inst = _instance(rng)
        beta = rng.standard_normal(inst.p)
        lam = rng.standard_normal(inst.p)
        G = dense_gram(inst.X)
        d = np.linalg.norm(inst.X, axis=0)
        l1 = np.abs(beta).sum()
        gap = abs(l1 - dual_objective(inst, lam)) / max(l1, 1.0)
        primal = (np.abs((G @ beta - inst.X.T @ inst.y) / d).max() - inst.delta) / max(
            np.linalg.norm(beta), 1.0
        )
        dual = (np.abs(G @ lam).max() - 1.0) / max(np.linalg.norm(lam), 1.0)
        expected = max(gap, primal, dual)
        assert stopping_metric(inst, beta, lam) == pytest.approx(expected, rel=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(18)
        inst = _instance(rng)
        for _ in range(20):
            value = stopping_metric(
                inst, rng.standard_normal(inst.p), rng.standard_normal(inst.p)
            )
            assert value >= 0.0


class TestUpdateLambda:
    def test_zero_residual_leaves_lambda_unchanged(self):
        rng = np.random.default_rng(19)
        inst = _instance(rng)
        beta = rng.standard_normal(inst.p)
        z = dense_gram(inst.X) @ beta - inst.X.T @ inst.y
        lam = rng.standard_normal(inst.p)
        out = update_lambda(inst, lam, beta, z, 3.0)
        assert np.allclose(out, lam, atol=1e-10)

    def test_unit_mu_from_zero_multiplier(self):
        rng = np.random.default_rng(20)
        inst = _instance(rng)
        beta = rng.standard_normal(inst.p)
        z = rng.standard_normal(inst.p)
        out = update_lambda(inst, np.zeros(inst.p), beta, z, 1.0)
        expected = dense_gram(inst.X) @ beta - inst.X.T @ inst.y - z
        assert np.allclose(out, expected, rtol=1e-10, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), mu=st.floats(0.1, 10))
    def test_matches_dense_evaluation(self, seed, mu):
        rng = np.random.default_rng(seed)
        inst = _instance(rng, n=4, p=7)
        beta = rng.standard_normal(7)
        z = rng.standard_normal(7)
        lam = rng.standard_normal(7)
        out = update_lambda(inst, lam, beta, z, mu)
        expected = lam + mu * (dense_gram(inst.X) @ beta - inst.X.T @ inst.y - z)
        assert np.allclose(out, expected, rtol=1e-9, atol=1e-9)


class TestPrecomputedGram:
    """The outer steps give the same answer with a held X^T X beta as with a fresh one."""

    def _case(self, seed):
        rng = np.random.default_rng(seed)
        inst = _instance(rng, n=6, p=10)
        beta = rng.standard_normal(inst.p)
        lam = rng.standard_normal(inst.p)
        z = rng.standard_normal(inst.p)
        return inst, beta, lam, z

    @pytest.mark.parametrize("seed", range(5))
    def test_same_result_as_fresh_product(self, seed):
        inst, beta, lam, z = self._case(seed)
        held = apply_gram(inst, beta)
        assert np.array_equal(update_z(inst, beta, lam, 1.3, held), update_z(inst, beta, lam, 1.3))
        assert np.array_equal(
            update_lambda(inst, lam, beta, z, 1.3, held), update_lambda(inst, lam, beta, z, 1.3)
        )
        assert adm_module._criterion_terms(inst, beta, lam, held) == adm_module._criterion_terms(
            inst, beta, lam
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_dense_gram_product_agrees(self, seed):
        inst, beta, lam, z = self._case(seed)
        dense = dense_gram(inst.X) @ beta
        np.testing.assert_allclose(
            update_z(inst, beta, lam, 1.3, dense), update_z(inst, beta, lam, 1.3),
            rtol=1e-10, atol=1e-12,
        )
        np.testing.assert_allclose(
            update_lambda(inst, lam, beta, z, 1.3, dense), update_lambda(inst, lam, beta, z, 1.3),
            rtol=1e-10, atol=1e-12,
        )
        np.testing.assert_allclose(
            adm_module._criterion_terms(inst, beta, lam, dense),
            adm_module._criterion_terms(inst, beta, lam),
            rtol=1e-10, atol=1e-12,
        )

    def test_wrong_length_rejected(self):
        inst, beta, lam, z = self._case(0)
        bad = np.zeros(inst.p + 1)
        with pytest.raises(ValueError):
            update_z(inst, beta, lam, 1.0, bad)
        with pytest.raises(ValueError):
            update_lambda(inst, lam, beta, z, 1.0, bad)
        with pytest.raises(ValueError):
            adm_module._criterion_terms(inst, beta, lam, bad)


class _CountingDesign(np.ndarray):
    """A view of X that counts the matrix-vector products made with it."""

    products = [0]

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = tuple(np.asarray(x) if isinstance(x, _CountingDesign) else x for x in inputs)
        if ufunc is np.matmul and method == "__call__":
            self.products[0] += 1
        return getattr(ufunc, method)(*plain, **kwargs)


class TestOuterCost:
    def test_three_products_plus_two_per_inner_iteration(self, gram_calls, monkeypatch):
        rng = np.random.default_rng(29)
        inst = _instance(rng, n=8, p=20)
        inst.xty  # cache X^T y before counting
        products = _CountingDesign.products
        object.__setattr__(inst, "X", inst.X.view(_CountingDesign))
        inner = []
        original = adm_module.solve_subproblem

        def recording(obj, u0, config, callback=None):
            result = original(obj, u0, config, callback)
            inner.append(result.iterations)
            return result

        monkeypatch.setattr(adm_module, "solve_subproblem", recording)
        products[0] = gram_calls[0] = 0
        seen = []
        _, _, report = solve(
            inst,
            AdmConfig(mu=1.0, tol=1e-5, max_outer_iter=40),
            beta0=rng.standard_normal(inst.p),
            callback=lambda rec: seen.append((gram_calls[0], products[0])),
        )
        assert report.outer_iterations == len(seen) == len(inner) > 5
        # start-up: G beta0 and the first stopping test
        calls_before, products_before = 1, 2 * 2
        for (calls, prods), inner_iters in zip(seen, inner):
            # apply_gram: G beta and the inner start-up gradient; the stopping
            # test's own product goes through X directly
            assert calls - calls_before == 2 + 2 * inner_iters
            assert prods - products_before == 2 * (3 + 2 * inner_iters)
            calls_before, products_before = calls, prods


class TestAdmConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mu": 0.0, "tol": 1e-3},
            {"mu": 1.0, "tol": 0.0},
            {"mu": 1.0, "tol": 1e-3, "sub_tol_factor": 0.0},
            {"mu": 1.0, "tol": 1e-3, "sub_tol_factor": 1.5},
            {"mu": 1.0, "tol": 1e-3, "max_outer_iter": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AdmConfig(**kwargs)

    def test_inner_tolerance_derived_from_outer(self):
        config = AdmConfig(mu=1.0, tol=1e-3)
        assert config.resolved_subsolver().tol_sub == pytest.approx(1e-4)

    def test_explicit_inner_tolerance_wins(self):
        config = AdmConfig(mu=1.0, tol=1e-3, subsolver=SubsolverConfig(tol_sub=1e-9))
        assert config.resolved_subsolver().tol_sub == 1e-9


class TestSolve:
    def test_zero_response_returns_zero_estimate(self):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((5, 9))
        inst = Instance(X=X, y=np.zeros(5), delta=0.7)
        beta, lam, report = solve(inst, AdmConfig(mu=1.0, tol=1e-3))
        assert report.status == "converged"
        assert report.outer_iterations == 0
        assert np.abs(beta).sum() <= 1e-3

    def test_matches_lp_optimum_on_tiny_instance(self):
        rng = np.random.default_rng(22)
        X, y, delta = random_instance_arrays(rng, 4, 6, delta_scale=0.4)
        inst = Instance(X=X, y=y, delta=delta)
        value, _ = lp_primal_enumeration(X, y, delta)
        beta, lam, report = solve(
            inst, AdmConfig(mu=2.0, tol=1e-6, max_outer_iter=50000)
        )
        assert report.status == "converged"
        assert np.abs(beta).sum() == pytest.approx(value, abs=1e-4)

    def test_warm_starts_subsolver_at_previous_beta(self, monkeypatch):
        rng = np.random.default_rng(23)
        inst = _instance(rng, n=5, p=8)
        seen = []
        original = adm_module.solve_subproblem

        def recording(obj, u0, config, callback=None):
            seen.append(np.array(u0))
            return original(obj, u0, config, callback)

        monkeypatch.setattr(adm_module, "solve_subproblem", recording)
        beta0 = rng.standard_normal(8)
        solve(inst, AdmConfig(mu=1.0, tol=1e-4, max_outer_iter=3), beta0=beta0)
        assert seen and np.array_equal(seen[0], beta0)

    def test_histories_and_counters_line_up(self):
        rng = np.random.default_rng(24)
        inst = _instance(rng, n=5, p=8)
        beta, lam, report = solve(inst, AdmConfig(mu=1.0, tol=1e-4, max_outer_iter=4000))
        assert len(report.stopping_metric_history) == report.outer_iterations + 1
        assert len(report.dual_objective_history) == report.outer_iterations + 1
        assert report.wall_time >= 0.0
        if report.status == "converged":
            assert report.stopping_metric_history[-1] <= 1e-4

    def test_max_iter_status(self):
        rng = np.random.default_rng(25)
        inst = _instance(rng, n=5, p=8)
        beta, lam, report = solve(inst, AdmConfig(mu=1.0, tol=1e-12, max_outer_iter=2))
        assert report.status == "max_iter"
        assert report.outer_iterations == 2

    def test_numerical_failure_surfaces_in_status(self, monkeypatch):
        rng = np.random.default_rng(26)
        inst = _instance(rng, n=5, p=8)

        def exploding(obj, u0, config, callback=None):
            u = np.full_like(np.asarray(u0), np.nan)
            return SubsolverResult(u=u, iterations=1, status="converged")

        monkeypatch.setattr(adm_module, "solve_subproblem", exploding)
        beta, lam, report = solve(inst, AdmConfig(mu=1.0, tol=1e-6))
        assert report.status == "numerical_failure"
        assert report.outer_iterations == 1

    def test_subsolver_failures_counted_and_run_continues(self, monkeypatch):
        rng = np.random.default_rng(27)
        inst = _instance(rng, n=5, p=8)
        original = adm_module.solve_subproblem
        calls = {"k": 0}

        def flaky(obj, u0, config, callback=None):
            result = original(obj, u0, config, callback)
            calls["k"] += 1
            if calls["k"] == 1:
                return SubsolverResult(u=result.u, iterations=result.iterations, status="max_iter")
            return result

        monkeypatch.setattr(adm_module, "solve_subproblem", flaky)
        beta, lam, report = solve(inst, AdmConfig(mu=1.0, tol=1e-4, max_outer_iter=4000))
        assert report.subsolver_failures == 1
        assert report.status == "converged"

    def test_outer_invariants_via_callback(self):
        rng = np.random.default_rng(28)
        inst = _instance(rng, n=6, p=9)
        mu = 1.4
        G = dense_gram(inst.X)
        h = inst.X.T @ inst.y
        records = []
        solve(
            inst,
            AdmConfig(mu=mu, tol=1e-5, max_outer_iter=20000),
            callback=records.append,
        )
        assert records
        for rec in records:
            # z stays inside the scaled box
            assert np.all(np.abs(rec.z / inst.d) <= inst.delta * (1 + 1e-12))
            # multiplier identity against an independent dense residual
            r = G @ rec.beta - h - rec.z
            err = np.abs(rec.lam - rec.lam_prev - mu * r).max()
            assert err <= 1e-12 * (1.0 + np.abs(rec.lam_prev).max())
