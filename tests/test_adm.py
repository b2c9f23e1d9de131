import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dantzig_adm.adm as adm_module
from dantzig_adm.adm import AdmConfig, solve, update_lambda, update_z
from dantzig_adm.core import DesignOperator, Instance, apply_gram
from dantzig_adm.evaluation import feasibility_report
from dantzig_adm.subsolver import (
    SubproblemObjective,
    SubsolverConfig,
    SubsolverResult,
    WarmStart,
    solve_subproblem,
)

from oracles import (
    augmented_lagrangian_dense,
    box_lagrangian_scalar,
    certificate_dense,
    dense_gram,
    lp_dual_enumeration,
    lp_primal_enumeration,
    random_instance_arrays,
)


def _instance(rng, n=6, p=10, delta_scale=0.5):
    X, y, delta = random_instance_arrays(rng, n, p, delta_scale)
    return Instance(X=X, y=y, delta=delta)


def _terms(inst, beta, lam):
    """(primal excess, dual excess, ||beta||_1, dual objective) from fresh Gram products."""
    return adm_module._criterion_terms(
        inst, beta, lam, apply_gram(inst, beta), apply_gram(inst, lam)
    )


def _metric_at(inst, beta, lam):
    """The stopping metric solve records at the start point (beta, lam).

    With tol = inf the start point passes the test at once, so the first
    entry of the history is the metric from fresh Gram products.
    """
    _, _, report = solve(inst, AdmConfig(mu=1.0, tol=np.inf), beta0=beta, lambda0=lam)
    assert report.outer_iterations == 0
    return report.stopping_metric_history[0]


def _lagrangian(inst, z, beta, lam, mu):
    """The augmented Lagrangian at (z, beta, lam), from the inner solver's residual at beta.

    With r = X^T X beta - X^T y - z the inner residual is r0 = r + lam/mu, so
    ||beta||_1 + lam.r + (mu/2)||r||^2 = ||beta||_1 + (mu/2)||r0||^2 - ||lam||^2/(2 mu).
    """
    r0 = WarmStart.at(SubproblemObjective(inst, z, lam, mu), beta).r0
    return float(np.abs(beta).sum()) + 0.5 * mu * float(r0 @ r0) - float(lam @ lam) / (2 * mu)


class TestAugmentedLagrangian:
    """The inner problem is the augmented Lagrangian in beta, up to a constant."""

    def test_vanishes_at_slack_kernel_point(self):
        rng = np.random.default_rng(0)
        inst = _instance(rng)
        z = -(inst.X.T @ inst.y)
        value = _lagrangian(inst, z, np.zeros(inst.p), np.zeros(inst.p), 2.0)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_reduces_to_quadratic_penalty(self):
        rng = np.random.default_rng(1)
        inst = _instance(rng)
        z = rng.standard_normal(inst.p)
        mu = 1.7
        value = _lagrangian(inst, z, np.zeros(inst.p), np.zeros(inst.p), mu)
        expected = 0.5 * mu * np.linalg.norm(inst.X.T @ inst.y + z) ** 2
        assert value == pytest.approx(expected, rel=1e-12)

    def test_matches_independent_dense_evaluation(self):
        rng = np.random.default_rng(2)
        inst = _instance(rng)
        beta = rng.standard_normal(inst.p)
        z = rng.standard_normal(inst.p)
        lam = rng.standard_normal(inst.p)
        mu = 0.9
        value = _lagrangian(inst, z, beta, lam, mu)
        r = dense_gram(inst.X) @ beta - inst.X.T @ inst.y - z
        expected = np.abs(beta).sum() + lam @ r + 0.5 * mu * (r @ r)
        assert value == pytest.approx(expected, rel=1e-10, abs=1e-10)


class TestUpdateZ:
    def test_interior_case_returns_negated_correlation(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((5, 8))
        y = rng.standard_normal(5)
        d = np.linalg.norm(X, axis=0)
        delta = 1.1 * np.abs((X.T @ y) / d).max()
        inst = Instance(X=X, y=y, delta=delta)
        z = update_z(inst, np.zeros(8), 1.0, np.zeros(8))  # beta = 0
        assert np.allclose(z, -(X.T @ y), atol=1e-12)

    def test_huge_delta_leaves_target_unclipped(self):
        rng = np.random.default_rng(5)
        X, y, _ = random_instance_arrays(rng, 5, 8)
        inst = Instance(X=X, y=y, delta=1e12)
        beta = rng.standard_normal(8)
        lam = rng.standard_normal(8)
        mu = 2.0
        z = update_z(inst, lam, mu, apply_gram(inst, beta))
        expected = dense_gram(X) @ beta - X.T @ y + lam / mu
        assert np.allclose(z, expected, rtol=1e-10)

    def test_matches_per_coordinate_minimization_oracle(self):
        rng = np.random.default_rng(6)
        inst = _instance(rng, n=6, p=10)
        beta = rng.standard_normal(10)
        lam = rng.standard_normal(10)
        mu = 1.3
        z = update_z(inst, lam, mu, apply_gram(inst, beta))
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
        z_star = update_z(inst, lam, mu, apply_gram(inst, beta))
        dense = (inst.X, inst.y)
        base = augmented_lagrangian_dense(*dense, z_star, beta, lam, mu)
        bound = inst.delta * inst.d
        for _ in range(100):
            z = rng.uniform(-bound, bound)
            assert base <= augmented_lagrangian_dense(*dense, z, beta, lam, mu) + 1e-10

    def test_feasibility_of_output(self):
        rng = np.random.default_rng(8)
        inst = _instance(rng)
        z = update_z(inst, rng.standard_normal(inst.p), 1.0, rng.standard_normal(inst.p))
        assert np.all(np.abs(z / inst.d) <= inst.delta * (1 + 1e-12))


class TestDualObjective:
    """The dual objective of _criterion_terms, which solve and feasibility_report share."""

    def test_zero_multiplier(self):
        rng = np.random.default_rng(9)
        inst = _instance(rng)
        assert _terms(inst, np.zeros(inst.p), np.zeros(inst.p))[3] == 0.0

    def test_delta_term_separates(self):
        # subtracting the delta term must leave exactly -y^T X lambda
        rng = np.random.default_rng(10)
        inst = _instance(rng)
        lam = rng.standard_normal(inst.p)
        linear = -float(inst.y @ (inst.X @ lam))
        value = _terms(inst, np.zeros(inst.p), lam)[3]
        assert value + inst.delta * float(inst.d @ np.abs(lam)) == pytest.approx(
            linear, rel=1e-12, abs=1e-12
        )

    def test_matches_independent_dense_evaluation(self):
        rng = np.random.default_rng(11)
        inst = _instance(rng)
        lam = rng.standard_normal(inst.p)
        D = np.diag(np.linalg.norm(inst.X, axis=0))
        expected = -inst.y @ inst.X @ lam - inst.delta * np.abs(D @ lam).sum()
        value = _terms(inst, np.zeros(inst.p), lam)[3]
        assert value == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(12)
        inst = _instance(rng)
        with pytest.raises(ValueError):
            feasibility_report(inst, np.zeros(inst.p), np.zeros(inst.p + 2))


class TestDualInfeasibility:
    """The dual excess ||X^T X lambda||_inf - 1 of _criterion_terms."""

    def test_zero_multiplier(self):
        rng = np.random.default_rng(13)
        inst = _instance(rng)
        assert _terms(inst, np.zeros(inst.p), np.zeros(inst.p))[1] == -1.0

    def test_orthogonal_square_design(self):
        q, _ = np.linalg.qr(np.random.default_rng(14).standard_normal((5, 5)))
        inst = Instance(X=q, y=np.zeros(5), delta=1.0)
        e1 = np.zeros(5)
        e1[0] = 1.0
        assert _terms(inst, np.zeros(5), e1)[1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_dense_gram(self):
        rng = np.random.default_rng(15)
        inst = _instance(rng)
        lam = rng.standard_normal(inst.p)
        expected = np.abs(dense_gram(inst.X) @ lam).max() - 1.0
        assert _terms(inst, np.zeros(inst.p), lam)[1] == pytest.approx(expected, rel=1e-10)


class TestStoppingMetric:
    """The metric solve records, from the terms of _criterion_terms."""

    def test_degenerate_zero_data(self):
        X = np.eye(4)
        inst = Instance(X=X, y=np.zeros(4), delta=0.5)
        assert _metric_at(inst, np.zeros(4), np.zeros(4)) == 0.0

    def test_small_at_enumerated_optimal_pair(self):
        rng = np.random.default_rng(16)
        for _ in range(3):
            X, y, delta = random_instance_arrays(rng, 3, 5, delta_scale=0.4)
            inst = Instance(X=X, y=y, delta=delta)
            _, beta_star = lp_primal_enumeration(X, y, delta)
            _, lam_star = lp_dual_enumeration(X, y, delta)
            assert _metric_at(inst, beta_star, lam_star) <= 1e-8

    def test_matches_term_by_term_evaluation(self):
        rng = np.random.default_rng(17)
        inst = _instance(rng)
        beta = rng.standard_normal(inst.p)
        lam = rng.standard_normal(inst.p)
        G = dense_gram(inst.X)
        h = inst.X.T @ inst.y
        d = np.linalg.norm(inst.X, axis=0)
        l1 = np.abs(beta).sum()
        dual_value = -h @ lam - inst.delta * (d @ np.abs(lam))
        gap = abs(l1 - dual_value) / max(l1, 1.0)
        primal = (np.abs((G @ beta - h) / d).max() - inst.delta) / max(
            np.linalg.norm(beta), 1.0
        )
        dual = (np.abs(G @ lam).max() - 1.0) / max(np.linalg.norm(lam), 1.0)
        expected = max(gap, primal, dual)
        assert _metric_at(inst, beta, lam) == pytest.approx(expected, rel=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(18)
        inst = _instance(rng)
        for _ in range(20):
            value = _metric_at(
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
        out = update_lambda(inst, lam, z, 3.0, apply_gram(inst, beta))
        assert np.allclose(out, lam, atol=1e-10)

    def test_unit_mu_from_zero_multiplier(self):
        rng = np.random.default_rng(20)
        inst = _instance(rng)
        beta = rng.standard_normal(inst.p)
        z = rng.standard_normal(inst.p)
        out = update_lambda(inst, np.zeros(inst.p), z, 1.0, apply_gram(inst, beta))
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
        out = update_lambda(inst, lam, z, mu, apply_gram(inst, beta))
        expected = lam + mu * (dense_gram(inst.X) @ beta - inst.X.T @ inst.y - z)
        assert np.allclose(out, expected, rtol=1e-9, atol=1e-9)


class TestPrecomputedGram:
    """The outer steps take X^T X beta as an argument and make no product of their own."""

    def _case(self, seed):
        rng = np.random.default_rng(seed)
        inst = _instance(rng, n=6, p=10)
        beta = rng.standard_normal(inst.p)
        lam = rng.standard_normal(inst.p)
        z = rng.standard_normal(inst.p)
        return inst, beta, lam, z

    @pytest.mark.parametrize("seed", range(5))
    def test_same_result_as_fresh_product(self, seed):
        # solve forms G beta0 fresh at start-up; its first outer step, replayed
        # from the outer steps and the inner solve with the products solve
        # holds, gives exactly its iterates and dual objectives
        inst, beta, lam, _ = self._case(seed)
        mu = 1.3
        config = AdmConfig(mu=mu, tol=1e-8, max_outer_iter=1)
        records = []
        _, _, report = solve(inst, config, beta0=beta, lambda0=lam, callback=records.append)
        (rec,) = records
        held, held_lam = apply_gram(inst, beta), apply_gram(inst, lam)
        z = update_z(inst, lam, mu, held)
        obj = SubproblemObjective(inst, z, lam, mu, gram_u0=held)
        result = solve_subproblem(obj, beta, config.resolved_subsolver())
        assert result.residual is not None
        gram_beta = result.residual + obj.c
        lam_next = update_lambda(inst, lam, z, mu, gram_beta)
        assert np.array_equal(rec.z, z)
        assert np.array_equal(rec.beta, result.u)
        assert np.array_equal(rec.lam, lam_next)
        first = adm_module._criterion_terms(inst, beta, lam, held, held_lam)
        step = adm_module._criterion_terms(inst, result.u, lam_next, gram_beta, result.gradient)
        assert report.dual_objective_history == [first[3], step[3]]

    @pytest.mark.parametrize("seed", range(5))
    def test_dense_gram_product_agrees(self, seed):
        inst, beta, lam, z = self._case(seed)
        dense, dense_lam = dense_gram(inst.X) @ beta, dense_gram(inst.X) @ lam
        held, held_lam = apply_gram(inst, beta), apply_gram(inst, lam)
        np.testing.assert_allclose(
            update_z(inst, lam, 1.3, dense), update_z(inst, lam, 1.3, held),
            rtol=1e-10, atol=1e-12,
        )
        np.testing.assert_allclose(
            update_lambda(inst, lam, z, 1.3, dense), update_lambda(inst, lam, z, 1.3, held),
            rtol=1e-10, atol=1e-12,
        )
        np.testing.assert_allclose(
            adm_module._criterion_terms(inst, beta, lam, dense, dense_lam),
            adm_module._criterion_terms(inst, beta, lam, held, held_lam),
            rtol=1e-10, atol=1e-12,
        )

    def test_wrong_length_rejected(self):
        inst, beta, lam, z = self._case(0)
        bad = np.zeros(inst.p + 1)
        with pytest.raises(ValueError):
            update_z(inst, lam, 1.0, bad)
        with pytest.raises(ValueError):
            update_lambda(inst, lam, z, 1.0, bad)
        with pytest.raises(ValueError):
            adm_module._criterion_terms(inst, beta, lam, bad, bad)


_PRODUCTS = ("matvec", "rmatvec", "kernel_matvec")


class TestOuterCost:
    """Products per outer iteration, counted through a counting view of X.

    An outer iteration costs its inner solve: X r0, X^T q0 and X^T E, plus
    X d, K (X d) and X^T per inner iteration.  The z clamp, the multiplier
    step and the stopping test make no product with X.
    """

    def _record_inner(self, monkeypatch, strip_first=False):
        """Record inner iteration counts; optionally drop the first result's residual."""
        inner = []
        original = adm_module.solve_subproblem

        def recording(obj, u0, config, callback=None):
            result = original(obj, u0, config, callback)
            if strip_first and not inner:
                result = SubsolverResult(u=result.u, iterations=result.iterations,
                                         status=result.status)
            inner.append(result.iterations)
            return result

        monkeypatch.setattr(adm_module, "solve_subproblem", recording)
        return inner

    @pytest.mark.parametrize("n, p", [(8, 20), (30, 12)])
    def test_three_products_plus_three_per_inner_iteration(self, monkeypatch, products, n, p):
        rng = np.random.default_rng(29)
        inst = _instance(rng, n=n, p=p)
        inst.xty  # cache X^T y before counting
        products.watch(inst)
        inner = self._record_inner(monkeypatch)
        seen = []
        _, _, report = solve(
            inst,
            AdmConfig(mu=1.0, tol=1e-5, max_outer_iter=40),
            beta0=rng.standard_normal(inst.p),
            callback=lambda rec: seen.append((dict(products.calls), products.x_products)),
        )
        assert report.outer_iterations == len(seen) == len(inner) > 5
        # start-up: G beta0 (X, X^T); lambda0 = 0 needs no product
        before, x_before = {"matvec": 1, "rmatvec": 1}, 2
        kernel_x = 1 if n <= p else 0  # forming K takes one X product per 64 rows
        per_kernel = 0 if n <= p else 2  # X (X^T w) when no K is formed
        for (calls, x_products), inner_iters in zip(seen, inner):
            step = {name: calls.get(name, 0) - before.get(name, 0) for name in _PRODUCTS}
            assert step == {
                "matvec": 1 + inner_iters,
                "rmatvec": 2 + inner_iters,
                "kernel_matvec": inner_iters,
            }
            assert x_products - x_before == 3 + (2 + per_kernel) * inner_iters + kernel_x
            kernel_x = 0
            before, x_before = calls, x_products
        assert products.outside == 0

    def test_best_iterate_gets_fresh_products(self, monkeypatch, products):
        rng = np.random.default_rng(30)
        inst = _instance(rng, n=8, p=20)
        inst.xty  # cache X^T y before counting
        products.watch(inst)
        inner = self._record_inner(monkeypatch, strip_first=True)
        seen = []
        _, _, report = solve(
            inst,
            AdmConfig(mu=1.0, tol=1e-5, max_outer_iter=5),
            callback=lambda rec: seen.append((dict(products.calls), rec)),
        )
        assert len(seen) == len(inner) > 2
        before = {}  # the zero start needs no product
        for k, ((calls, rec), inner_iters) in enumerate(zip(seen, inner)):
            fresh = 2 if k == 0 else 0  # G beta and G lambda, with no residual held
            step = {name: calls.get(name, 0) - before.get(name, 0) for name in _PRODUCTS}
            assert step == {
                "matvec": 1 + inner_iters + fresh,
                "rmatvec": 2 + inner_iters + fresh,
                "kernel_matvec": inner_iters,
            }
            before = calls
        assert products.outside == 0
        rec = seen[0][1]
        assert rec.metric == _metric_at(inst, rec.beta, rec.lam)


class TestOuterIdentity:
    """The outer step read off the inner solver equals the step formed afresh."""

    @pytest.mark.parametrize("seed, n, p, mu", [(31, 8, 20, 1.0), (32, 6, 9, 1.4), (33, 25, 10, 0.7)])
    def test_multiplier_step_and_metric_match_fresh_products(self, seed, n, p, mu):
        rng = np.random.default_rng(seed)
        inst = _instance(rng, n=n, p=p)
        G = dense_gram(inst.X)
        h = inst.X.T @ inst.y
        records = []
        _, _, report = solve(inst, AdmConfig(mu=mu, tol=1e-6, max_outer_iter=3000),
                             callback=records.append)
        assert report.status == "converged" and len(records) > 3
        for rec in records:
            expected = rec.lam_prev + mu * (G @ rec.beta - h - rec.z)
            scale = max(np.abs(expected).max(), np.abs(rec.lam_prev).max())
            assert np.abs(rec.lam - expected).max() <= 1e-10 * scale
            assert rec.metric == pytest.approx(_metric_at(inst, rec.beta, rec.lam), rel=1e-10)


class _NoKernel(DesignOperator):
    """A design operator that takes the n > p path, K w = X (X^T w), at any shape."""

    kernel = None


class TestKernelPaths:
    """The formed kernel (n <= p) and X (X^T w) give the same inner solve."""

    @pytest.mark.parametrize("seed", range(4))
    def test_same_iterations_and_iterates(self, seed):
        # unit columns and a sparse signal, as in the benchmark designs: a
        # well-conditioned solve, so rounding does not decide the counts
        rng = np.random.default_rng(70 + seed)
        n, p = 12, 30
        X = rng.standard_normal((n, p))
        X /= np.linalg.norm(X, axis=0)
        signal = np.where(rng.random(p) < 0.2, rng.standard_normal(p), 0.0)
        inst = Instance(X=X, y=X @ signal + 0.05 * rng.standard_normal(n), delta=1.0)
        z = 0.1 * rng.standard_normal(p)
        lam = 0.1 * rng.standard_normal(p)
        runs = []
        for design in (DesignOperator(inst.X), _NoKernel(inst.X)):
            obj = SubproblemObjective(inst, z, lam, 0.5, design=design)
            records = []
            result = solve_subproblem(
                obj, np.zeros(inst.p), SubsolverConfig(tol_sub=1e-6), callback=records.append
            )
            runs.append((result, records))
        (result, records), (result_nk, records_nk) = runs
        assert result.succeeded and records
        assert result.iterations == result_nk.iterations == len(records) == len(records_nk)
        for rec, rec_nk in zip(records, records_nk):
            assert np.abs(rec.u - rec_nk.u).max() <= 1e-10 * max(1.0, np.abs(rec.u).max())
        assert np.abs(result.u - result_nk.u).max() <= 1e-10 * max(1.0, np.abs(result.u).max())


class TestDegenerateInstances:
    """beta = 0 is optimal: y = 0, or delta at least ||D^-1 X^T y||_inf."""

    TOL = 1e-3

    @staticmethod
    def _design(rng, tall, n, p):
        shape = (max(n, p) + 1, min(n, p)) if tall else (min(n, p), max(n, p))
        return rng.standard_normal(shape)

    def _check(self, X, y, delta):
        inst = Instance(X=X, y=y, delta=delta)
        beta, lam, report = solve(inst, AdmConfig(mu=1.0, tol=self.TOL))
        assert report.status == "converged"
        assert not beta.any()
        certificate = certificate_dense(X, y, delta, beta, lam)
        assert max(certificate.values()) <= self.TOL

    @pytest.mark.parametrize("tall", [False, True])
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        p=st.integers(1, 12),
        delta=st.floats(1e-3, 10.0),
    )
    def test_zero_response(self, tall, seed, n, p, delta):
        rng = np.random.default_rng(seed)
        X = self._design(rng, tall, n, p)
        self._check(X, np.zeros(X.shape[0]), delta)

    @pytest.mark.parametrize("tall", [False, True])
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        p=st.integers(1, 12),
        factor=st.one_of(st.just(1.0), st.floats(1.0, 10.0)),
    )
    def test_delta_at_or_above_the_zero_threshold(self, tall, seed, n, p, factor):
        rng = np.random.default_rng(seed)
        X = self._design(rng, tall, n, p)
        y = rng.standard_normal(X.shape[0])
        level = float(np.abs((X.T @ y) / np.linalg.norm(X, axis=0)).max())
        self._check(X, y, factor * level)


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
