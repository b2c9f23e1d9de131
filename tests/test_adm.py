import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dantzig_adm.adm as adm_module
import dantzig_adm.core as core_module
import dantzig_adm.subsolver as subsolver_module
from dantzig_adm.adm import (
    START_ROWS_PER_COLUMN,
    SUB_TOL_FACTOR,
    SUB_TOL_START,
    AdmConfig,
    solve,
    update_lambda,
    update_z,
)
from dantzig_adm.core import (
    RESTRICTED_MIN_ENTRIES,
    DesignOperator,
    Instance,
    apply_gram,
    least_squares,
)
from dantzig_adm.datagen import GenSpec, make_instance, mu_rule, tol_rule
from dantzig_adm.evaluation import feasibility_report
from dantzig_adm.subsolver import SubproblemObjective, SubsolverResult, solve_subproblem

from oracles import (
    augmented_lagrangian_dense,
    box_lagrangian_scalar,
    certificate_dense,
    constant_formula,
    dense_gram,
    inner_problem,
    lp_dual_enumeration,
    lp_optimum,
    lp_primal_enumeration,
    random_instance_arrays,
    screened_start,
    top_by_argsort,
    z_update_formula,
)


def _instance(rng, n=6, p=10, delta_scale=0.5):
    X, y, delta = random_instance_arrays(rng, n, p, delta_scale)
    return Instance(X=X, y=y, delta=delta)


def _update_z(inst, lam, mu, gram_beta):
    """update_z handed lambda/mu and the box's bounds, formed as the ADM loop forms them."""
    bound = inst.delta * inst.d
    return update_z(inst, gram_beta, lam / mu, bound, -bound)


def _terms(inst, beta, lam):
    """_criterion_terms from fresh Gram products: (metric, dual objective, primal
    excess, dual excess, gap, primal ratio, dual ratio, gap ratio)."""
    return adm_module._criterion_terms(
        inst, beta, lam, apply_gram(inst, beta), apply_gram(inst, lam)
    )


def _metric_at(inst, beta, lam):
    """The stopping metric solve records at the start point (beta, lam).

    With the largest finite tol a start point of finite metric passes the
    test at once, so the first entry of the history is the metric from
    fresh Gram products.
    """
    config = AdmConfig(mu=1.0, tol=sys.float_info.max)
    _, _, report = solve(inst, config, beta0=beta, lambda0=lam)
    assert report.outer_iterations == 0
    return report.stopping_metric_history[0]


def _lagrangian(inst, z, beta, lam, mu):
    """The augmented Lagrangian at (z, beta, lam), from the inner solver's residual at beta.

    With r = X^T X beta - X^T y - z the inner residual is r0 = r + lam/mu, so
    ||beta||_1 + lam.r + (mu/2)||r||^2 = ||beta||_1 + (mu/2)||r0||^2 - ||lam||^2/(2 mu).
    """
    r0 = inner_problem(inst, z, lam, mu, beta).r0
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
        z, _ = _update_z(inst, np.zeros(8), 1.0, np.zeros(8))  # beta = 0
        assert np.allclose(z, -(X.T @ y), atol=1e-12)

    def test_huge_delta_leaves_target_unclipped(self):
        rng = np.random.default_rng(5)
        X, y, _ = random_instance_arrays(rng, 5, 8)
        inst = Instance(X=X, y=y, delta=1e12)
        beta = rng.standard_normal(8)
        lam = rng.standard_normal(8)
        mu = 2.0
        z, _ = _update_z(inst, lam, mu, apply_gram(inst, beta))
        expected = dense_gram(X) @ beta - X.T @ y + lam / mu
        assert np.allclose(z, expected, rtol=1e-10)

    def test_matches_per_coordinate_minimization_oracle(self):
        rng = np.random.default_rng(6)
        inst = _instance(rng, n=6, p=10)
        beta = rng.standard_normal(10)
        lam = rng.standard_normal(10)
        mu = 1.3
        z, _ = _update_z(inst, lam, mu, apply_gram(inst, beta))
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
        z_star, _ = _update_z(inst, lam, mu, apply_gram(inst, beta))
        dense = (inst.X, inst.y)
        base = augmented_lagrangian_dense(*dense, z_star, beta, lam, mu)
        bound = inst.delta * inst.d
        for _ in range(100):
            z = rng.uniform(-bound, bound)
            assert base <= augmented_lagrangian_dense(*dense, z, beta, lam, mu) + 1e-10

    def test_feasibility_of_output(self):
        rng = np.random.default_rng(8)
        inst = _instance(rng)
        z, _ = _update_z(inst, rng.standard_normal(inst.p), 1.0, rng.standard_normal(inst.p))
        assert np.all(np.abs(z / inst.d) <= inst.delta * (1 + 1e-12))

    @pytest.mark.parametrize("seed", range(4))
    def test_r0_is_the_inner_residual_at_beta(self, seed):
        # r0 has the bytes of (G beta - X^T y + lambda/mu) - z, and is the
        # inner problem's residual G beta - c at beta up to rounding
        rng = np.random.default_rng(40 + seed)
        inst = _instance(rng)
        beta, lam, mu = rng.standard_normal(inst.p), rng.standard_normal(inst.p), 1.3
        gram_beta = apply_gram(inst, beta)
        z, r0 = _update_z(inst, lam, mu, gram_beta)
        expected = (gram_beta - inst.xty + lam / mu) - z
        assert r0.tobytes() == expected.tobytes()
        obj = SubproblemObjective(inst, z, lam, mu, r0, DesignOperator(inst.X), lam / mu)
        fresh = obj.residual(beta)
        assert np.abs(r0 - fresh).max() <= 1e-12 * max(1.0, np.abs(gram_beta).max(),
                                                       np.abs(obj.c).max())

    @pytest.mark.parametrize("seed", range(4))
    def test_held_bound_and_scaled_multiplier_give_the_formula_bytes(self, seed):
        rng = np.random.default_rng(50 + seed)
        inst = _instance(rng)
        lam, mu = rng.standard_normal(inst.p), 1.3
        lam[:3] = 0.0, -0.0, 1e-300
        gram_beta = apply_gram(inst, rng.standard_normal(inst.p))
        bound = inst.delta * inst.d
        z, r0 = update_z(inst, gram_beta, lam / mu, bound, -bound)
        expected = z_update_formula(inst, lam, mu, gram_beta)
        assert (z.tobytes(), r0.tobytes()) == tuple(v.tobytes() for v in expected)
        obj = SubproblemObjective(inst, z, lam, mu, r0, DesignOperator(inst.X), lam / mu)
        assert obj.c.tobytes() == constant_formula(inst, z, lam, mu).tobytes()

    def test_a_solve_forms_each_iteration_as_the_formulas(self, monkeypatch):
        # every outer iteration's z, r0 and c have the bytes of the formulas
        # that divide lambda by mu and clip, over every round of a solve
        inst, _ = make_instance(GenSpec(n=48, p=200, s=6, sigma_noise=0.05, seed=2))
        config = AdmConfig(mu=mu_rule("unit_columns", inst.p, inst.delta), tol=1e-3)
        update, objective, seen = adm_module.update_z, adm_module.SubproblemObjective, []

        def checked_update(sub, gram_beta, scaled, bound, lower):
            z, r0 = update(sub, gram_beta, scaled, bound, lower)
            seen.append(gram_beta)
            return z, r0

        def checked_objective(sub, z, lam, mu, r0, *args):
            expected = z_update_formula(sub, lam, mu, seen[-1])
            assert (z.tobytes(), r0.tobytes()) == tuple(v.tobytes() for v in expected)
            obj = objective(sub, z, lam, mu, r0, *args)
            assert obj.c.tobytes() == constant_formula(sub, z, lam, mu).tobytes()
            return obj

        monkeypatch.setattr(adm_module, "update_z", checked_update)
        monkeypatch.setattr(adm_module, "SubproblemObjective", checked_objective)
        _, _, report = solve(inst, config)
        assert report.status == "converged" and report.rounds >= 2
        assert len(seen) == report.outer_iterations


class TestDualObjective:
    """The dual objective of _criterion_terms, which solve and feasibility_report share."""

    def test_zero_multiplier(self):
        rng = np.random.default_rng(9)
        inst = _instance(rng)
        assert _terms(inst, np.zeros(inst.p), np.zeros(inst.p))[1] == 0.0

    def test_delta_term_separates(self):
        # subtracting the delta term must leave exactly -y^T X lambda
        rng = np.random.default_rng(10)
        inst = _instance(rng)
        lam = rng.standard_normal(inst.p)
        linear = -float(inst.y @ (inst.X @ lam))
        value = _terms(inst, np.zeros(inst.p), lam)[1]
        assert value + inst.delta * float(inst.d @ np.abs(lam)) == pytest.approx(
            linear, rel=1e-12, abs=1e-12
        )

    def test_matches_independent_dense_evaluation(self):
        rng = np.random.default_rng(11)
        inst = _instance(rng)
        lam = rng.standard_normal(inst.p)
        D = np.diag(np.linalg.norm(inst.X, axis=0))
        expected = -inst.y @ inst.X @ lam - inst.delta * np.abs(D @ lam).sum()
        value = _terms(inst, np.zeros(inst.p), lam)[1]
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
        assert _terms(inst, np.zeros(inst.p), np.zeros(inst.p))[3] == -1.0

    def test_orthogonal_square_design(self):
        q, _ = np.linalg.qr(np.random.default_rng(14).standard_normal((5, 5)))
        inst = Instance(X=q, y=np.zeros(5), delta=1.0)
        e1 = np.zeros(5)
        e1[0] = 1.0
        assert _terms(inst, np.zeros(5), e1)[3] == pytest.approx(0.0, abs=1e-12)

    def test_matches_dense_gram(self):
        rng = np.random.default_rng(15)
        inst = _instance(rng)
        lam = rng.standard_normal(inst.p)
        expected = np.abs(dense_gram(inst.X) @ lam).max() - 1.0
        assert _terms(inst, np.zeros(inst.p), lam)[3] == pytest.approx(expected, rel=1e-10)


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

    def test_norms_are_those_of_np_linalg_norm(self):
        # the ratios take ||v||_2 as sqrt(v . v), which is how norm forms it
        rng = np.random.default_rng(19)
        for _ in range(200):
            p = int(rng.integers(1, 300))
            inst = Instance(X=rng.standard_normal((2, p)), y=rng.standard_normal(2), delta=0.5)
            beta, lam, gram_beta, gram_lam = (rng.standard_normal(p) * 10.0 ** rng.integers(-8, 8)
                                              for _ in range(4))
            terms = adm_module._criterion_terms(inst, beta, lam, gram_beta, gram_lam)
            _, _, primal, dual, _, primal_ratio, dual_ratio, _ = terms
            assert primal_ratio == primal / max(float(np.linalg.norm(beta)), 1.0)
            assert dual_ratio == dual / max(float(np.linalg.norm(lam)), 1.0)

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
        # from the outer steps and the inner solve (at outer iteration 0's
        # tolerance) with the products solve holds, gives exactly its
        # iterates and dual objectives
        inst, beta, lam, _ = self._case(seed)
        mu = 1.3
        config = AdmConfig(mu=mu, tol=1e-8, max_outer_iter=1)
        records = []
        _, _, report = solve(inst, config, beta0=beta, lambda0=lam, callback=records.append)
        (rec,) = records
        held, held_lam = apply_gram(inst, beta), apply_gram(inst, lam)
        z, r0 = _update_z(inst, lam, mu, held)
        obj = SubproblemObjective(inst, z, lam, mu, r0, DesignOperator(inst.X), lam / mu)
        metric = report.stopping_metric_history[0]
        result = solve_subproblem(obj, beta, config.inner_tolerance(0, metric))
        assert result.residual is not None
        gram_beta = result.residual + obj.c
        lam_next = update_lambda(inst, lam, z, mu, gram_beta)
        assert np.array_equal(rec.z, z)
        assert np.array_equal(rec.beta, result.u)
        assert np.array_equal(rec.lam, lam_next)
        first = adm_module._criterion_terms(inst, beta, lam, held, held_lam)
        step = adm_module._criterion_terms(inst, result.u, lam_next, gram_beta, result.gradient)
        assert report.dual_objective_history == [first[1], step[1]]

    @pytest.mark.parametrize("seed", range(5))
    def test_dense_gram_product_agrees(self, seed):
        inst, beta, lam, z = self._case(seed)
        dense, dense_lam = dense_gram(inst.X) @ beta, dense_gram(inst.X) @ lam
        held, held_lam = apply_gram(inst, beta), apply_gram(inst, lam)
        np.testing.assert_allclose(
            _update_z(inst, lam, 1.3, dense), _update_z(inst, lam, 1.3, held),
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

    @pytest.mark.parametrize("seed", [2, 7, 10])
    def test_warm_start_residual_vanishes_off_the_clamp(self, monkeypatch, seed):
        # the z update's r0 = w - z, the residual G beta - c that it hands the
        # inner solve, is exactly 0 where its clamp left z = w; at these
        # seeds every z update after the first outer step clamps an entry
        inst, _ = make_instance(GenSpec(n=60, p=200, s=8, sigma_noise=0.05, seed=seed))
        starts = []

        def recording(sub, gram_beta, scaled, bound, lower):
            z, r0 = update_z(sub, gram_beta, scaled, bound, lower)
            # the box of the round's instance: z and r0 live on its columns W
            starts.append((z, r0, sub.delta * sub.d))
            return z, r0

        monkeypatch.setattr(adm_module, "update_z", recording)
        mu = mu_rule("unit_columns", inst.p, inst.delta)
        _, _, report = solve(inst, AdmConfig(mu=mu, tol=1e-3))
        assert report.outer_iterations == len(starts) > 1
        for z, r0, bound in starts[1:]:  # after an outer step
            on_box = np.abs(z) == bound
            assert np.count_nonzero(r0[~on_box]) == 0
            assert np.count_nonzero(r0[on_box]) > 0

    def test_wrong_length_rejected(self):
        inst, beta, lam, _ = self._case(0)
        bad = np.zeros(inst.p + 1)
        with pytest.raises(ValueError):
            adm_module._criterion_terms(inst, beta, lam, bad, bad)


_PRODUCTS = ("matvec", "rmatvec", "rmatvec_pair", "gram_matvec")


def _step(calls, before):
    """The calls made between two snapshots, with a zero count for no call."""
    return {name: calls.get(name, 0) - before.get(name, 0) for name in _PRODUCTS}


class TestOuterCost:
    """Products per outer iteration of the full method, counted through a counting view of X.

    The full method is the ADM loop on all of X (the ``whole_problem``
    fixture); solve runs it on each round's columns.

    An outer iteration costs its inner solve: G r0 plus two products with
    G = X^T X per inner iteration.  When n <= p each is X^T (X v), one X
    product and one X^T; when p < n each is a product with the formed G, and
    none is with X.  The z clamp, the multiplier step and the stopping test
    make no product with X.
    """

    def _record_inner(self, monkeypatch):
        """Record inner results."""
        inner = []
        original = adm_module.solve_subproblem

        def recording(obj, u0, tol_sub, callback=None):
            result = original(obj, u0, tol_sub, callback)
            inner.append(result)
            return result

        monkeypatch.setattr(adm_module, "solve_subproblem", recording)
        return inner

    _SIZES = [(8, 20), (10, 60), (48, 200)]

    @staticmethod
    def _case(n, p):
        """(instance, beta0, config): dense and random from a random beta0, or at
        (48, 200) a sparse unit-column one from zero."""
        if (n, p) == (48, 200):
            inst, _ = make_instance(GenSpec(n=n, p=p, s=6, sigma_noise=0.05, seed=2))
            config = AdmConfig(mu=mu_rule("unit_columns", p, inst.delta), tol=1e-3)
            return inst, np.zeros(p), config
        rng = np.random.default_rng(29)
        inst = _instance(rng, n=n, p=p)
        return inst, rng.standard_normal(p), AdmConfig(mu=1.0, tol=1e-5, max_outer_iter=40)

    @pytest.mark.parametrize("n, p", sorted(_SIZES, reverse=True))
    def test_two_products_plus_four_per_inner_iteration(
        self, monkeypatch, products, whole_problem, n, p
    ):
        inst, beta0, config = self._case(n, p)
        products.watch(inst)
        inner = self._record_inner(monkeypatch)
        seen = []
        _, _, report = whole_problem(
            inst,
            config,
            beta0=beta0,
            callback=lambda rec: seen.append((dict(products.calls), products.x_products)),
        )
        assert report.outer_iterations == len(seen) == len(inner) > 5
        assert all(result.succeeded for result in inner)
        # start-up: G beta0 (X, X^T), none from zero; lambda0 = 0 needs no product
        before, x_before = {}, 0
        if beta0.any():
            before, x_before = {"matvec": 1, "rmatvec": 1}, 2
        for (calls, x_products), result in zip(seen, inner):
            gram = 1 + 2 * result.iterations  # each X^T (X v)
            step = _step(calls, before)
            assert step == {"matvec": gram, "rmatvec": gram, "rmatvec_pair": 0, "gram_matvec": gram}
            assert x_products - x_before == 2 * gram
            before, x_before = calls, x_products
        assert products.outside == 0

    def test_formed_gram_one_product_plus_two_per_inner_iteration(
        self, monkeypatch, products, whole_problem
    ):
        # n > p: the loop on all of X forms G = X^T X once, in the first
        # inner solve; each inner solve then makes G r0 and two products
        # with G per iteration, and none with X
        inst, beta0, config = self._case(30, 12)
        products.watch(inst)
        inner = self._record_inner(monkeypatch)
        seen = []
        _, _, report = whole_problem(
            inst,
            config,
            beta0=beta0,
            callback=lambda rec: seen.append((dict(products.calls), products.x_products)),
        )
        assert report.outer_iterations == len(seen) == len(inner) > 5
        assert all(result.succeeded for result in inner)
        # start-up: G beta0 (X, X^T); lambda0 = 0 needs no product
        before, x_before = {"matvec": 1, "rmatvec": 1}, 2
        kernel_x = products.forming_kernel(inst)  # one X product per 64 columns
        for (calls, x_products), result in zip(seen, inner):
            assert _step(calls, before) == {
                "matvec": 0,
                "rmatvec": 0,
                "rmatvec_pair": 0,
                "gram_matvec": 1 + 2 * result.iterations,
            }
            assert x_products - x_before == kernel_x
            kernel_x = 0
            before, x_before = calls, x_products
        assert products.outside == 0

    def test_a_solve_makes_no_xty_product(self, products):
        # X^T y comes with the instance, from the pass over X that gave d:
        # every product a solve makes with X is one of its operator's
        inst, _ = make_instance(GenSpec(n=48, p=200, s=6, sigma_noise=0.05, seed=2))
        products.watch(inst)
        _, _, report = solve(inst, AdmConfig(mu=mu_rule("unit_columns", inst.p, inst.delta),
                                             tol=1e-3))
        assert report.status == "converged" and products.x_products > 0
        assert products.outside == 0

    def test_default_start_costs_one_restricted_x_and_one_transpose(self, monkeypatch, products):
        # X has RESTRICTED_MIN_ENTRIES entries, so each X beta reads only the start's columns
        inst, _ = make_instance(GenSpec(n=128, p=2048, s=8, sigma_noise=0.01, seed=3))
        assert inst.X.size >= RESTRICTED_MIN_ENTRIES
        products.watch(inst)
        start = []
        original = adm_module.solve_subproblem

        def first(obj, u0, tol_sub, callback=None):
            if not start:  # the counts before the first inner solve: the start-up
                # the G beta0 handed over, read back as r0 + c
                start.append((u0.copy(), obj.r0 + obj.c, dict(products.calls),
                              products.x_products))
            return original(obj, u0, tol_sub, callback)

        monkeypatch.setattr(adm_module, "solve_subproblem", first)
        monkeypatch.setattr(adm_module, "apply_gram", None)  # the default start makes none
        config = AdmConfig(mu=mu_rule("unit_columns", inst.p, inst.delta), tol=1e-3,
                           max_outer_iter=1)
        _, _, report = solve(inst, config)
        [(u0, gram_beta0, calls, x_products)] = start
        beta0 = screened_start(inst)
        support = np.flatnonzero(beta0)
        # the first round runs on W = supp(beta0), and its first inner solve starts at beta0 there
        assert np.array_equal(u0, beta0[support])
        assert report.start_support == np.count_nonzero(u0) == 128 // START_ROWS_PER_COLUMN
        # three refits; the third raised the residual, so the second fit is kept
        # and its X^T r was the last: one X beta and one X^T r per round
        # before it, and one more X beta for the rejected fit
        assert report.start_rounds == 3
        assert calls == {"matvec": 4, "rmatvec": 3}
        assert x_products == 3  # the X^T r; each X beta is restricted
        assert products.outside == 0
        # G beta0 = X^T y - X^T r, with X beta0 = y - r, read on W
        expected = (dense_gram(inst.X) @ beta0)[support]
        assert np.abs(gram_beta0 - expected).max() <= 1e-12 * np.abs(inst.xty).max()

    def test_failed_inner_solve_costs_what_a_converged_one_costs(
        self, monkeypatch, products, whole_problem
    ):
        # the first inner solve stops at a cap of 2 iterations and returns its
        # best iterate; it carries its residual and gradient as a converged
        # one does, so the loop makes no product of its own for it
        rng = np.random.default_rng(30)
        inst = _instance(rng, n=8, p=20)
        products.watch(inst)
        inner = []
        original = adm_module.solve_subproblem

        def capped_first(obj, u0, tol_sub, callback=None):
            with pytest.MonkeyPatch.context() as patch:
                if not inner:
                    patch.setattr(subsolver_module, "MAX_INNER_ITER", 2)
                inner.append(original(obj, u0, tol_sub, callback))
            return inner[-1]

        monkeypatch.setattr(adm_module, "solve_subproblem", capped_first)
        mu, seen = 1.0, []
        _, _, report = whole_problem(
            inst,
            AdmConfig(mu=mu, tol=1e-5, max_outer_iter=5),
            callback=lambda rec: seen.append((dict(products.calls), rec)),
        )
        assert len(seen) == len(inner) > 2
        assert [result.succeeded for result in inner] == [False] + [True] * (len(inner) - 1)
        assert inner[0].status == "max_iter" and report.subsolver_failures == 1
        before = {}  # the zero start needs no product
        for (calls, _), result in zip(seen, inner):
            gram = 1 + 2 * result.iterations  # each X^T (X v)
            assert _step(calls, before) == {
                "matvec": gram, "rmatvec": gram, "rmatvec_pair": 0, "gram_matvec": gram}
            before = calls
        assert products.outside == 0
        # the step read off the failed solve's result, as TestOuterIdentity checks it
        G, h = dense_gram(inst.X), inst.X.T @ inst.y
        for _, rec in seen:
            expected = rec.lam_prev + mu * (G @ rec.beta - h - rec.z)
            scale = max(np.abs(expected).max(), np.abs(rec.lam_prev).max())
            assert np.abs(rec.lam - expected).max() <= 1e-10 * scale
            assert rec.metric == pytest.approx(_metric_at(inst, rec.beta, rec.lam), rel=1e-10)


def _on_round(inst, rec):
    """(instance of X[:, W], z, beta, lam, lam_prev on W) of a record of solve.

    W is the record's round's columns, all of X when ``columns`` is None.  The
    padded vectors must be zero off W.
    """
    if rec.columns is None:
        return inst, rec.z, rec.beta, rec.lam, rec.lam_prev
    columns = rec.columns
    off = np.ones(inst.p, dtype=bool)
    off[columns] = False
    vectors = (rec.z, rec.beta, rec.lam, rec.lam_prev)
    assert not any(v[off].any() for v in vectors)
    sub = Instance(X=np.asarray(inst.X)[:, columns], y=inst.y, delta=inst.delta)
    return (sub, *(v[columns] for v in vectors))


class TestOuterIdentity:
    """The outer step read off the inner solver equals the step formed afresh.

    Each record is checked on its round's problem, the Dantzig selector of
    X[:, W], which is what the ADM loop ran; off W its vectors are zero.
    """

    @pytest.mark.parametrize("seed, n, p, mu", [(31, 8, 20, 1.0), (32, 6, 9, 1.4), (33, 25, 10, 0.7)])
    def test_multiplier_step_and_metric_match_fresh_products(self, seed, n, p, mu):
        rng = np.random.default_rng(seed)
        inst = _instance(rng, n=n, p=p)
        records = []
        _, _, report = solve(inst, AdmConfig(mu=mu, tol=1e-6, max_outer_iter=3000),
                             callback=records.append)
        assert report.status == "converged" and len(records) > 3
        assert [rec.iteration for rec in records] == list(range(1, report.outer_iterations + 1))
        for rec in records:
            sub, z, beta, lam, lam_prev = _on_round(inst, rec)
            G = dense_gram(sub.X)
            h = sub.X.T @ sub.y
            expected = lam_prev + mu * (G @ beta - h - z)
            scale = max(np.abs(expected).max(), np.abs(lam_prev).max())
            assert np.abs(lam - expected).max() <= 1e-10 * scale
            assert rec.metric == pytest.approx(_metric_at(sub, beta, lam), rel=1e-10)


class _FormedGram(DesignOperator):
    """A design operator that forms G = X^T X at any shape."""

    forms_gram = True


class TestKernelPaths:
    """G v as X^T (X v) and from the formed G give the same inner solve."""

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
        for design in (DesignOperator(inst.X), _FormedGram(inst.X)):
            obj = inner_problem(inst, z, lam, 0.5, np.zeros(inst.p), design)
            records = []
            result = solve_subproblem(obj, np.zeros(inst.p), 1e-6, callback=records.append)
            runs.append((result, records))
        (result, records), (result_nk, records_nk) = runs
        assert result.succeeded and records
        assert result.iterations == result_nk.iterations == len(records) == len(records_nk)
        for rec, rec_nk in zip(records, records_nk):
            assert np.abs(rec.u - rec_nk.u).max() <= 1e-10 * max(1.0, np.abs(rec.u).max())
        assert np.abs(result.u - result_nk.u).max() <= 1e-10 * max(1.0, np.abs(result.u).max())

    def test_whole_solve_counts_agree_on_both_paths(self):
        # the ADM loop on all of X from the default start, which makes its
        # products as X^T (X v) or with the formed p x p G.  An inner solve
        # that stops near its tolerance may take one more iteration on one
        # path than the other, so the counts agree only where rounding
        # decides none: at seed 15, and on no seed of 0-59 from the zero
        # start, whose long first inner solves amplify the rounding
        inst, _ = make_instance(GenSpec(n=48, p=200, s=6, sigma_noise=0.05, seed=15))
        config = AdmConfig(mu=mu_rule("unit_columns", inst.p, inst.delta), tol=1e-3)
        runs = []
        for design, shape in ((DesignOperator(inst.X), None), (_FormedGram(inst.X), (200, 200))):
            *start, report = adm_module._start(inst, config, design, None, None)
            beta, _, _ = adm_module._adm(inst, config, design, *start, report, None, math.inf,
                                         config.tol)
            runs.append((beta, report))
            held = design.__dict__.get("kernel")
            assert (None if held is None else held.shape) == shape
        (beta, report), (beta_nk, report_nk) = runs
        assert report.status == report_nk.status == "converged"
        assert report.outer_iterations == report_nk.outer_iterations > 0
        assert report.inner_iteration_total == report_nk.inner_iteration_total
        assert np.abs(beta - beta_nk).max() <= 1e-10 * max(1.0, np.abs(beta_nk).max())


class TestHandedInnerProblems:
    """Each inner solve of the ADM loop takes the steps of a fresh one.

    The loop hands every inner solve the r0 of its z update, formed from the
    previous residual, and the operator kept across the solve (or round).
    Rerun from its inputs with a fresh operator and a fresh Gram product, each
    inner solve takes the same number of iterations to the same iterate up
    to rounding: on all of X (the ``whole_problem`` fixture, whose products
    are X^T (X v)) and on the rounds of solve, whose blocks have fewer than
    n columns (a formed G_W) or, at (48, 200), more.
    """

    @staticmethod
    def _rerun_each(monkeypatch):
        """Record each inner solve and rerun it fresh at once.

        A round's instance is a view of the kept block, valid until the next
        copy, so the rerun cannot wait for the solve to end.
        """
        pairs = []
        original = adm_module.solve_subproblem

        def recording(obj, u0, tol_sub, callback=None):
            result = original(obj, u0, tol_sub, callback)
            plain = inner_problem(obj.inst, obj.z_fixed, obj.lambda_fixed, obj.mu, u0)
            pairs.append((result, original(plain, u0.copy(), tol_sub)))
            return result

        monkeypatch.setattr(adm_module, "solve_subproblem", recording)
        return pairs

    @staticmethod
    def _assert_same_steps(pairs):
        assert pairs
        for result, fresh in pairs:
            assert fresh.iterations == result.iterations and fresh.status == result.status
            scale = max(1.0, np.abs(fresh.u).max())
            assert np.abs(fresh.u - result.u).max() <= 1e-10 * scale

    @staticmethod
    def _case(seed):
        inst, _ = make_instance(GenSpec(n=48, p=200, s=6, sigma_noise=0.05, seed=seed))
        return inst, AdmConfig(mu=mu_rule("unit_columns", inst.p, inst.delta), tol=1e-3)

    @pytest.mark.parametrize("seed", [2, 5])
    def test_on_all_of_x(self, monkeypatch, whole_problem, seed):
        inst, config = self._case(seed)
        pairs = self._rerun_each(monkeypatch)
        _, _, report = whole_problem(inst, config)
        assert report.status == "converged"
        assert len(pairs) == report.outer_iterations
        self._assert_same_steps(pairs)

    @pytest.mark.parametrize("seed", [2, 5])
    def test_on_the_rounds(self, monkeypatch, seed):
        inst, config = self._case(seed)
        pairs = self._rerun_each(monkeypatch)
        _, _, report = solve(inst, config)
        assert report.status == "converged" and report.rounds >= 1
        assert len(pairs) == report.outer_iterations
        self._assert_same_steps(pairs)


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
        assert report.rounds == report.working_columns == report.outer_iterations == 0
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


class TestColumnGeneration:
    """solve's rounds on a growing set of columns W, checked on the full problem.

    Each answer passes the dense certificate at tol, and at the sizes an LP
    solver reaches its ||beta||_1 lies within the bounds the certificate
    gives around the optimum of scipy's HiGHS (see test_acceptance's
    TestOptimalityOracle).
    """

    TOL = 1e-3

    def _solve(self, inst, **kwargs):
        config = AdmConfig(mu=mu_rule("unit_columns", inst.p, inst.delta), tol=self.TOL, **kwargs)
        return solve(inst, config)

    def _certified(self, inst, beta, lam, report):
        assert report.status == "converged"
        certificate = certificate_dense(np.asarray(inst.X), inst.y, inst.delta, beta, lam)
        worst = max(certificate[f"{name}_ratio"] for name in ("primal", "dual", "gap"))
        assert worst <= self.TOL
        # the last entry of the history is the full problem's metric
        assert report.stopping_metric_history[-1] == pytest.approx(worst, rel=1e-6)

    def _near_the_lp_optimum(self, inst, beta, lam):
        X, y, delta = np.asarray(inst.X), inst.y, inst.delta
        optimum, _, lam_lp = lp_optimum(X, y, delta)
        d = np.linalg.norm(X, axis=0)
        l1 = float(np.abs(beta).sum())
        dual = -float((X.T @ y) @ lam) - delta * float(d @ np.abs(lam))
        L = max(float(np.linalg.norm(lam)), 1.0)
        above = self.TOL * (l1 * L + max(l1, 1.0)) / (1 + self.TOL * L) / optimum
        below = self.TOL * max(float(np.linalg.norm(beta)), 1.0) * float(d @ np.abs(lam_lp)) / optimum
        assert dual >= 0
        assert -below <= (l1 - optimum) / optimum <= above

    @staticmethod
    def _record_rounds(monkeypatch):
        """Per round: (|W|, the shape of the G its operator holds or None,
        whether that operator is the one the start's last fit ran on, the
        columns copied for it, whether that copy took a new buffer, the G
        formed for it as (rows, rows of the known block or None), outer
        iterations).

        A round's operator is made, with its copy and its G, by the
        restricted call before the round runs, and those count toward that
        round; what the start's fits copy and form does not count."""
        rounds, log, fits = [], [], []
        original, kernel, take = adm_module._adm, core_module._kernel, DesignOperator.take
        least_squares = adm_module.least_squares

        def taking(design, columns, kept=0):
            buffer = design._rows
            view = take(design, columns, kept)
            grew = design._rows is not buffer
            log.append(("take", columns.size if grew else columns.size - kept, grew))
            return view

        def forming(A, known=None):
            log.append(("kernel", A.shape[0], None if known is None else known.shape[0]))
            return kernel(A, known)

        def fitting(design, y, columns):
            before = len(log)
            b = least_squares(design, y, columns)
            del log[before:]
            fits.append(None if design._last is None else design._last[1])
            return b

        def recording(inst, config, design, beta, lam, gram_beta, gram_lam, report, *args):
            done = report.outer_iterations
            result = original(inst, config, design, beta, lam, gram_beta, gram_lam, report, *args)
            held = design.__dict__.get("kernel")
            takes = [entry[1:] for entry in log if entry[0] == "take"]
            rounds.append((inst.p, None if held is None else held.shape,
                           bool(fits) and design is fits[-1],
                           sum(copied for copied, _ in takes), any(grew for _, grew in takes),
                           [entry[1:] for entry in log if entry[0] == "kernel"],
                           report.outer_iterations - done))
            log.clear()
            return result

        monkeypatch.setattr(adm_module, "_adm", recording)
        monkeypatch.setattr(adm_module, "least_squares", fitting)
        monkeypatch.setattr(core_module, "_kernel", forming)
        monkeypatch.setattr(DesignOperator, "take", taking)
        return rounds

    @staticmethod
    def _each_round_forms_one_kernel(inst, rounds):
        """A round with |W| < n holds one G; one with |W| >= n holds none.

        W keeps the order its columns joined, so each round after the first
        appends its new columns to the last round's block, copying only
        them (all of them when the copy takes a new buffer), and appends
        their products to the last round's G; a rerun of the same W keeps
        both.  The first round runs on the operator of the start's last
        fit, with its block and G, when W holds that fit's columns, and
        copies its block and forms its G afresh otherwise.  A round with
        |W| >= n makes its products as X^T (X v), and a round on all of X
        forms its G, when p < n, on its first product."""
        previous = None  # the last round's |W| and G shape
        for k, (p, shape, handed, copied, grew, formed, outer) in enumerate(rounds):
            held = (p, p) if p < inst.n else None
            if previous is not None and p == previous[0]:  # a rerun keeps the last G
                assert (shape, copied, formed) == (previous[1], 0, [])
            elif p == inst.p:  # all of X: no copy
                assert (shape, copied) == (held if outer else None, 0)
                assert formed == ([(p, None)] if held and outer else [])
            elif k == 0 and handed:  # the operator of the start's last fit
                assert (shape, copied, formed) == (held, 0, [])
            elif k == 0:
                assert (shape, copied, formed) == (held, p, [(p, None)] if held else [])
            else:
                assert not handed and shape == held
                assert copied == (p if grew else p - previous[0])
                assert formed == ([(p, previous[0])] if held else [])
            previous = p, shape

    @pytest.mark.parametrize("seed", [2, 3])
    def test_each_round_forms_its_gram_matrix_once(self, monkeypatch, seed):
        # (64, 200): the rounds whose W stays below n = 64 form their G
        inst, _ = make_instance(GenSpec(n=64, p=200, s=6, sigma_noise=0.05, seed=seed))
        rounds = self._record_rounds(monkeypatch)
        beta, lam, report = self._solve(inst)
        self._certified(inst, beta, lam, report)
        assert report.rounds == len(rounds) >= 2
        assert any(p < inst.n and outer for p, *_, outer in rounds)
        self._each_round_forms_one_kernel(inst, rounds)
        # the first round's W holds the columns of the start's last fit, and
        # it runs on that fit's operator: no column is copied and no G formed
        p, shape, handed, copied, _, formed, _ = rounds[0]
        assert handed and shape == (p, p) and copied == 0 and formed == []
        # the rounds after the first grow the last G while |W| < n, and a
        # rerun of the same W keeps it
        assert [len(formed) for *_, formed, _ in rounds] == [
            int(k > 0 and p < inst.n and p != rounds[k - 1][0]) for k, (p, *_) in enumerate(rounds)]
        assert rounds[1][5] == [(rounds[1][0], rounds[0][0])]

    @pytest.mark.parametrize("seed", [10, 33, 50])
    def test_rounds_form_no_kernel_once_w_reaches_n(self, monkeypatch, seed):
        # (40, 1000) at sigma 0.01: W starts at the 4 columns of the screened
        # start and grows past n = 40, where its rounds make their products
        # as X^T (X v) in place of G, but stays below p / 2
        inst, _ = make_instance(GenSpec(n=40, p=1000, s=4, sigma_noise=0.01, seed=seed))
        rounds = self._record_rounds(monkeypatch)
        capacity = []
        take = DesignOperator.take

        def recording(design, columns, kept=0):
            view = take(design, columns, kept)
            capacity.append(design._rows.shape[0])
            return view

        monkeypatch.setattr(DesignOperator, "take", recording)
        beta, lam, report = self._solve(inst)
        self._certified(inst, beta, lam, report)
        assert report.rounds == len(rounds) >= 3
        assert report.working_columns == rounds[-1][0] < inst.p // 2
        assert report.outer_iterations == sum(outer for *_, outer in rounds)
        self._each_round_forms_one_kernel(inst, rounds)
        iterating = [p for p, *_, outer in rounds if outer]
        assert min(iterating) < inst.n <= max(iterating)
        # a G was grown below n, and none past it
        assert any(known for p, *_, formed, _ in rounds if p < inst.n for _, known in formed)
        # one buffer for the start's fits and every round, never n x p
        assert max(capacity) <= 2 * report.working_columns < inst.p

    def test_round_one_runs_on_the_operator_of_the_accepted_last_fit(self, monkeypatch):
        # (64, 200), seed 3: the start keeps its last fit, and the first
        # round's W holds that fit's columns
        inst, _ = make_instance(GenSpec(n=64, p=200, s=6, sigma_noise=0.05, seed=3))
        rounds = self._record_rounds(monkeypatch)
        self._solve(inst)
        p, shape, handed, copied, _, formed, outer = rounds[0]
        assert handed and outer and p < inst.n
        assert (shape, copied, formed) == ((p, p), 0, [])

    def test_each_later_round_copies_only_its_new_columns(self, monkeypatch):
        # (64, 200), seed 3: W grows 7 -> 14 -> 17 -> 18; the copies of 7
        # and 1 columns fit the buffer, and the one of 17 takes a new one
        inst, _ = make_instance(GenSpec(n=64, p=200, s=6, sigma_noise=0.05, seed=3))
        rounds = self._record_rounds(monkeypatch)
        self._solve(inst)
        self._each_round_forms_one_kernel(inst, rounds)
        later = [(p - before[0], copied, grew)
                 for before, (p, _, _, copied, grew, _, _) in zip(rounds, rounds[1:])]
        assert any(not grew and 0 < copied for _, copied, grew in later)
        for added, copied, grew in later:
            assert grew or copied == added

    def test_a_round_after_a_rejected_refit_forms_its_g_afresh(self, monkeypatch):
        # (128, 2048), seed 3: the start's third refit raised the residual and
        # was rejected, so the first round's W is not the last fit's columns
        inst, _ = make_instance(GenSpec(n=128, p=2048, s=8, sigma_noise=0.01, seed=3))
        rounds = self._record_rounds(monkeypatch)
        _, _, report = self._solve(inst)
        assert report.start_rounds == 3
        p, shape, handed, copied, _, formed, _ = rounds[0]
        assert not handed and p < inst.n
        assert (shape, copied, formed) == ((p, p), p, [(p, None)])
        self._each_round_forms_one_kernel(inst, rounds)

    @pytest.mark.parametrize("seed", [1, 33])
    def test_w_is_the_last_rounds_w_followed_by_the_violators(self, monkeypatch, seed):
        # (40, 1000) at sigma 0.01: W grows over 5 and 7 rounds, past n at
        # seed 33, where a check without violators reruns W.  Each round's W is the last round's in the same order,
        # then the violators of its check, ascending
        inst, _ = make_instance(GenSpec(n=40, p=1000, s=4, sigma_noise=0.01, seed=seed))
        grown, starts, records = [], [], []
        grow, original = adm_module._grow, adm_module._adm

        def growing(columns, excess, tol, p):
            violators = np.flatnonzero(excess > adm_module.VIOLATION_FRACTION * tol)
            grown.append((columns.copy(), violators))
            return grow(columns, excess, tol, p)

        def noting(inst, config, design, beta, lam, gram_beta, gram_lam, report, *args):
            starts.append(report.outer_iterations)
            return original(inst, config, design, beta, lam, gram_beta, gram_lam, report, *args)

        monkeypatch.setattr(adm_module, "_grow", growing)
        monkeypatch.setattr(adm_module, "_adm", noting)
        config = AdmConfig(mu=mu_rule("unit_columns", inst.p, inst.delta), tol=self.TOL)
        _, _, report = solve(inst, config, callback=records.append)
        assert report.status == "converged" and report.rounds == len(starts) >= 3
        # every round iterates, so its first record carries its W
        assert len(set(starts)) == len(starts) and starts[-1] < report.outer_iterations
        rounds = [records[k].columns for k in starts]
        assert len(grown) == len(rounds) - 1
        for last, (columns, violators), now in zip(rounds, grown, rounds[1:]):
            assert np.array_equal(columns, last)
            assert np.array_equal(now, np.concatenate((last, violators)))
            assert np.all(np.diff(violators) > 0) and not np.isin(violators, last).any()
        assert any(not np.array_equal(np.sort(w), w) for w in rounds)

    def test_the_zero_start_on_all_of_x_is_certified(self, monkeypatch):
        # (48, 200), seed 2: from the paper's zero start the first check takes
        # W past p // 2, so the one round runs on all of X; G would be larger
        # than X, so its products are X^T (X v) and no kernel is formed
        inst, _ = make_instance(GenSpec(n=48, p=200, s=6, sigma_noise=0.05, seed=2))
        formed, kernel = [], core_module._kernel
        monkeypatch.setattr(core_module, "_kernel", lambda A: formed.append(A.shape) or kernel(A))
        config = AdmConfig(mu=mu_rule("unit_columns", inst.p, inst.delta), tol=self.TOL)
        beta, lam, report = solve(inst, config, beta0=np.zeros(inst.p))
        assert report.status == "converged"
        assert report.rounds == 1 and report.working_columns == inst.p
        assert formed == []
        certificate = feasibility_report(inst, beta, lam)
        ratios = (certificate.primal_ratio, certificate.dual_ratio, certificate.gap_ratio)
        assert max(ratios) <= self.TOL

    @pytest.mark.parametrize("seed", range(3))
    def test_duplicate_columns(self, seed):
        inst, truth = make_instance(GenSpec(n=48, p=200, s=6, sigma_noise=0.05, seed=seed))
        X = np.array(inst.X)
        X[:, 100:120] = X[:, :20]
        rng = np.random.default_rng(seed)
        inst = Instance(X=X, y=X @ truth.beta_true + 0.05 * rng.standard_normal(48),
                        delta=inst.delta)
        beta, lam, report = self._solve(inst)
        self._certified(inst, beta, lam, report)
        assert report.rounds >= 2
        self._near_the_lp_optimum(inst, beta, lam)

    @pytest.mark.parametrize("seed", range(3))
    def test_more_rows_than_columns(self, seed):
        rng = np.random.default_rng(80 + seed)
        n, p = 150, 50
        X = rng.standard_normal((n, p))
        X /= np.linalg.norm(X, axis=0)
        signal = np.where(rng.random(p) < 0.1, rng.standard_normal(p), 0.0)
        inst = Instance(X=X, y=X @ signal + 0.05 * rng.standard_normal(n),
                        delta=0.05 * np.sqrt(2 * np.log(p)))
        beta, lam, report = self._solve(inst)
        self._certified(inst, beta, lam, report)
        assert report.rounds >= 1 and beta.any()
        self._near_the_lp_optimum(inst, beta, lam)

    def test_the_histories_span_every_round(self, monkeypatch):
        inst, _ = make_instance(GenSpec(n=48, p=200, s=6, sigma_noise=0.05, seed=2))
        records = []
        # a round may rerun the same W, so the boundaries come from the rounds'
        # levels: the outer iterations made before each level was appended
        starts, original = [], adm_module._adm

        def noting(inst, config, design, beta, lam, gram_beta, gram_lam, report, *args):
            levels, done = list(report.round_levels), report.outer_iterations
            result = original(inst, config, design, beta, lam, gram_beta, gram_lam, report, *args)
            assert report.round_levels[:-1] == levels
            starts.append(done)
            return result

        monkeypatch.setattr(adm_module, "_adm", noting)
        config = AdmConfig(mu=mu_rule("unit_columns", inst.p, inst.delta), tol=self.TOL)
        beta, lam, report = solve(inst, config, callback=records.append)
        self._certified(inst, beta, lam, report)
        assert report.rounds >= 2
        assert len(report.stopping_metric_history) == report.outer_iterations + 1
        assert len(report.dual_objective_history) == report.outer_iterations + 1
        assert len(report.inner_iteration_history) == report.outer_iterations == len(records)
        assert [rec.iteration for rec in records] == list(range(1, len(records) + 1))
        assert len(starts) == len(report.round_levels) == report.rounds
        # one schedule per solve: only the first round opens at SUB_TOL_START,
        # and the halving counts the outer iterations of every round
        tolerances = report.inner_tolerance_history
        opening = [tolerances[k] == SUB_TOL_START for k in starts]
        assert opening == [True] + [False] * (len(starts) - 1)
        halving = [k for k in range(len(tolerances)) if SUB_TOL_START * 2.0**-k > 0.1 * self.TOL]
        assert any(k in halving for k in starts[1:])
        assert [tolerances[k] for k in halving] == [SUB_TOL_START * 2.0**-k for k in halving]
        assert records[-1].columns.size == report.working_columns

    def test_a_round_converged_at_its_start_replaces_the_last_entry(self):
        # (40, 200), seed 19: the second round converges on W, and its check
        # finds columns off W whose ratios exceed VIOLATION_FRACTION * tol but
        # not tol.  The answer passes on the full problem, so the solve ends
        # after 2 rounds rather than run a third that would start converged,
        # and the full metric replaces the second round's last entry
        inst, _ = make_instance(GenSpec(n=40, p=200, s=4, sigma_noise=0.05, seed=19))
        records = []
        config = AdmConfig(mu=mu_rule("unit_columns", inst.p, inst.delta), tol=self.TOL)
        beta, lam, report = solve(inst, config, callback=records.append)
        assert report.status == "converged" and report.rounds == 2
        iterating = [records[0].columns.size]
        iterating += [rec.columns.size for prev, rec in zip(records, records[1:])
                      if not np.array_equal(rec.columns, prev.columns)]
        assert len(iterating) == 2 and iterating[-1] == report.working_columns
        excess = adm_module._excess(inst, beta, lam, apply_gram(inst, beta), apply_gram(inst, lam))
        excess[records[-1].columns] = -np.inf
        assert adm_module.VIOLATION_FRACTION * self.TOL < excess.max() <= self.TOL
        assert report.stopping_metric_history[-1] == pytest.approx(excess.max(), rel=1e-9)
        assert excess.max() > records[-1].metric
        assert len(report.stopping_metric_history) == report.outer_iterations + 1
        assert len(report.dual_objective_history) == report.outer_iterations + 1
        certificate = feasibility_report(inst, beta, lam)
        worst = max(certificate.primal_ratio, certificate.dual_ratio, certificate.gap_ratio)
        assert report.stopping_metric_history[-1] <= self.TOL
        assert report.stopping_metric_history[-1] == pytest.approx(worst, rel=1e-9)

    def test_no_round_starts_converged(self, monkeypatch):
        # a converged round whose answer passes on the full problem ends the
        # solve, so every round that runs has work to do
        for seed in range(20):
            inst, _ = make_instance(GenSpec(n=48, p=200, s=6, sigma_noise=0.05, seed=seed))
            with monkeypatch.context() as patched:
                rounds = self._record_rounds(patched)
                beta, lam, report = self._solve(inst)
            self._certified(inst, beta, lam, report)
            assert report.rounds == len(rounds)
            assert all(outer > 0 for *_, outer in rounds), seed

    def test_a_stalled_round_is_checked_off_w(self):
        # at 750 times the mu rule the ADM's steps are short: after the first
        # round stops at its level, the metric on its 5 columns does not halve
        # for STALL_ITERATIONS outer iterations, twice.  Each stalled round
        # ends and is checked off W; the first check finds no violator and
        # reruns W, and after the second the columns off W join
        inst, _ = make_instance(GenSpec(n=48, p=200, s=5, sigma_noise=0.05, seed=1))
        config = AdmConfig(mu=750 * mu_rule("unit_columns", inst.p, inst.delta), tol=1e-7)
        records = []
        _, _, report = solve(inst, config, callback=records.append)
        assert report.rounds >= 2
        first = next(k for k, rec in enumerate(records)
                     if not np.array_equal(rec.columns, records[0].columns))
        assert adm_module.STALL_ITERATIONS <= first < config.max_outer_iter
        assert report.stopping_metric_history[-1] < 1e-6

    def test_growing_w_imports_no_numpy_ma(self):
        # np.union1d imports numpy.ma on its first call (numpy 2.4); _grow
        # unites W and its violators without it
        script = (
            "import sys\n"
            "import dantzig_adm\n"
            "spec = dantzig_adm.GenSpec(n=48, p=200, s=6, sigma_noise=0.05, seed=2)\n"
            "inst, _ = dantzig_adm.make_instance(spec)\n"
            "mu = dantzig_adm.mu_rule('unit_columns', inst.p, inst.delta)\n"
            "_, _, report = dantzig_adm.solve(inst, dantzig_adm.AdmConfig(mu=mu, tol=1e-3))\n"
            "print(report.rounds >= 2, 'numpy.ma' in sys.modules)\n"
        )
        src = Path(adm_module.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["True", "False"]  # W grew, without numpy.ma

    def test_a_round_at_the_outer_cap_returns_max_iter(self):
        inst, _ = make_instance(GenSpec(n=48, p=200, s=6, sigma_noise=0.05, seed=2))
        records = []
        config = AdmConfig(mu=mu_rule("unit_columns", inst.p, inst.delta), tol=self.TOL)
        solve(inst, config, callback=records.append)
        first = next(k for k, rec in enumerate(records)
                     if not np.array_equal(rec.columns, records[0].columns))
        # the second round stops at the cap: max_iter, with the full metric above tol
        _, _, report = self._solve(inst, max_outer_iter=first + 1)
        assert report.status == "max_iter" and report.rounds == 2
        assert report.outer_iterations == first + 1
        assert report.stopping_metric_history[-1] > self.TOL
        # the first round converges on its W at the cap; its check finds
        # violators and no outer iteration is left
        _, _, report = self._solve(inst, max_outer_iter=first)
        assert report.rounds == 1 and report.outer_iterations == first
        metric = report.stopping_metric_history[-1]
        assert report.status == ("converged" if metric <= self.TOL else "max_iter")


class TestEarlyRounds:
    """A round on W stops at max(tol, ROUND_LEVEL_FRACTION * m) once it has made
    ROUND_FLOOR_ITERATIONS outer iterations, m the full metric at the last check."""

    TOL = 1e-3

    def _solve(self, inst, **kwargs):
        config = AdmConfig(mu=mu_rule("unit_columns", inst.p, inst.delta), tol=self.TOL, **kwargs)
        return solve(inst, config)

    @staticmethod
    def _record_rounds(monkeypatch):
        """Per round: (W, outer iterations, the last metric on W, the round's level)."""
        rounds, original = [], adm_module._adm

        def recording(inst, config, design, beta, lam, gram_beta, gram_lam, report, *args):
            done = report.outer_iterations
            result = original(inst, config, design, beta, lam, gram_beta, gram_lam, report, *args)
            rounds.append((inst.X, report.outer_iterations - done, result[2],
                           report.round_levels[-1]))
            return result

        monkeypatch.setattr(adm_module, "_adm", recording)
        return rounds

    def test_a_round_that_stops_early_made_the_floor_and_reached_its_level(self, monkeypatch):
        # (48, 200), seed 2: the second round stops at its level, above tol
        inst, _ = make_instance(GenSpec(n=48, p=200, s=6, sigma_noise=0.05, seed=2))
        rounds = self._record_rounds(monkeypatch)
        _, _, report = self._solve(inst)
        assert report.status == "converged"
        early = [(outer, metric, level) for _, outer, metric, level in rounds
                 if metric > self.TOL]
        assert early
        for outer, metric, level in early:
            assert outer >= adm_module.ROUND_FLOOR_ITERATIONS
            assert self.TOL < metric <= level

    def test_rounds_within_the_floor_give_the_bytes_of_rounds_run_to_tol(self, monkeypatch):
        # (64, 200), seed 0: each round converges on W within the floor, so the
        # levels change nothing
        inst, _ = make_instance(GenSpec(n=64, p=200, s=6, sigma_noise=0.05, seed=0))
        with monkeypatch.context() as patched:
            rounds = self._record_rounds(patched)
            beta, lam, report = self._solve(inst)
        assert report.rounds == len(rounds) >= 2
        assert all(outer < adm_module.ROUND_FLOOR_ITERATIONS for _, outer, *_ in rounds)
        assert any(level > self.TOL for level in report.round_levels)
        monkeypatch.setattr(adm_module, "ROUND_LEVEL_FRACTION", 0.0)
        beta_tol, lam_tol, report_tol = self._solve(inst)
        assert report_tol.round_levels == [self.TOL] * report.rounds
        assert beta.tobytes() == beta_tol.tobytes() and lam.tobytes() == lam_tol.tobytes()
        assert report.stopping_metric_history == report_tol.stopping_metric_history
        assert report.inner_iteration_history == report_tol.inner_iteration_history

    def test_a_check_without_violators_reruns_w_at_a_tighter_level(self, monkeypatch):
        # (48, 200), seed 2: the round that stops early leaves no column off W
        # violating, and the next round runs on the same W to a lower level
        inst, _ = make_instance(GenSpec(n=48, p=200, s=6, sigma_noise=0.05, seed=2))
        rounds = self._record_rounds(monkeypatch)
        _, _, report = self._solve(inst)
        assert report.status == "converged"
        reruns = [(level, after[3]) for (X, outer, metric, level), after in zip(rounds, rounds[1:])
                  if metric > self.TOL and np.array_equal(X, after[0])]
        assert reruns
        for level, next_level in reruns:
            assert self.TOL <= next_level < level

    def test_a_rerun_keeps_the_last_rounds_block_and_operator(self, monkeypatch):
        # (48, 200), seed 2: the rerun of the same W copies no column and forms
        # no G; it runs on the last round's block and operator
        inst, _ = make_instance(GenSpec(n=48, p=200, s=6, sigma_noise=0.05, seed=2))
        calls, rounds = [], []  # rounds: (instance, operator, calls before the round)
        take, kernel, original = DesignOperator.take, core_module._kernel, adm_module._adm

        def recording(inst, config, design, *args):
            rounds.append((inst, design, list(calls)))
            calls.clear()
            return original(inst, config, design, *args)

        monkeypatch.setattr(DesignOperator, "take",
                            lambda *args: calls.append("take") or take(*args))
        monkeypatch.setattr(core_module, "_kernel",
                            lambda *args: calls.append("kernel") or kernel(*args))
        monkeypatch.setattr(adm_module, "_adm", recording)
        _, _, report = self._solve(inst)
        assert report.status == "converged" and report.rounds == len(rounds)
        # W only grows, so a round on as many columns as the last reruns its W
        reruns = [k for k in range(1, len(rounds)) if rounds[k][0].p == rounds[k - 1][0].p]
        assert reruns
        for k in range(1, len(rounds)):
            sub, design, before = rounds[k]
            if k in reruns:
                assert before == []
                assert sub.X is rounds[k - 1][0].X and design is rounds[k - 1][1]
            else:
                assert "take" in before and design is not rounds[k - 1][1]

    @pytest.mark.parametrize("seed", range(4))
    def test_round_levels_hold_each_rounds_level(self, whole_problem, seed):
        inst, _ = make_instance(GenSpec(n=48, p=200, s=6, sigma_noise=0.05, seed=seed))
        _, _, report = self._solve(inst)
        assert len(report.round_levels) == report.rounds >= 1
        assert all(level >= self.TOL for level in report.round_levels)
        # the first round's m is the start's metric
        start = report.stopping_metric_history[0]
        assert report.round_levels[0] == max(self.TOL, adm_module.ROUND_LEVEL_FRACTION * start)
        # the loop on all of X runs one round, to tol
        config = AdmConfig(mu=mu_rule("unit_columns", inst.p, inst.delta), tol=self.TOL)
        _, _, whole = whole_problem(inst, config)
        assert whole.round_levels == [self.TOL] and whole.rounds == 1

    def test_converged_exactly_when_the_certificate_passes(self, monkeypatch):
        # over (48, 200), seeds 0-19, each solve also runs with its cap at the
        # end of its first round that stops early: that answer is not certified
        capped = 0
        for seed in range(20):
            inst, _ = make_instance(GenSpec(n=48, p=200, s=6, sigma_noise=0.05, seed=seed))
            with monkeypatch.context() as patched:
                rounds = self._record_rounds(patched)
                outcomes = [self._solve(inst)]
            ends = np.cumsum([outer for _, outer, *_ in rounds])
            early = [end for end, (_, _, metric, _) in zip(ends, rounds) if metric > self.TOL]
            if early:
                outcomes.append(self._solve(inst, max_outer_iter=int(early[0])))
                capped += 1
            for beta, lam, report in outcomes:
                certificate = feasibility_report(inst, beta, lam)
                worst = max(certificate.primal_ratio, certificate.dual_ratio, certificate.gap_ratio)
                assert (report.status == "converged") == (worst <= self.TOL), seed
                assert len(report.round_levels) == report.rounds
        assert capped > 0


class TestAdmConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mu": 0.0, "tol": 1e-3},
            {"mu": 1.0, "tol": 0.0},
            {"mu": 1.0, "tol": 1e-3, "max_outer_iter": 0},
            {"mu": 1.0, "tol": 1e-3, "max_outer_iter": 3.5},
            {"mu": 1.0, "tol": 1e-3, "max_outer_iter": 10000.0},
            {"mu": math.inf, "tol": 1e-3},
            {"mu": math.nan, "tol": 1e-3},
            {"mu": 1.0, "tol": math.inf},
            {"mu": 1.0, "tol": math.nan},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AdmConfig(**kwargs)

    @pytest.mark.parametrize("mu", [2, np.float32(0.5), np.float64(1.25)])
    def test_mu_is_held_as_a_float(self, mu):
        # the loops and SubproblemObjective take mu as the config holds it
        config = AdmConfig(mu=mu, tol=1e-3)
        assert type(config.mu) is float and config.mu == float(mu)

    @settings(max_examples=60, deadline=None)
    @given(
        tol=st.floats(1e-12, 1.0),
        iteration=st.integers(0, 3000),
        metric=st.floats(0.0, 1e12),
    )
    def test_inner_tolerance_is_positive_and_finite(self, tol, iteration, metric):
        # solve_subproblem takes tol_sub unchecked: the schedule must keep it in (0, inf)
        tol_sub = AdmConfig(mu=1.0, tol=tol).inner_tolerance(iteration, metric)
        assert 0.0 < tol_sub < math.inf

    def test_three_settings(self):
        # the inner solver's parameters are the paper's constants, not settings
        assert [f.name for f in fields(AdmConfig)] == ["mu", "tol", "max_outer_iter"]

    def test_inner_tolerance_derived_from_outer(self):
        # past the halving: the floor once the least metric is at most tol, and
        # SUB_TOL_FACTOR times that metric above it
        config = AdmConfig(mu=1.0, tol=1e-3)
        assert config.inner_tolerance(10**6, 5e-4) == pytest.approx(1e-4)
        assert config.inner_tolerance(10**6, 3e-3) == pytest.approx(3e-4)

    @pytest.mark.parametrize("tol", [1e-3, 2e-4, 1e-6])
    def test_schedule_halves_down_to_the_floor_and_never_rises(self, tol):
        # with the least metric at tol, the floor follows the halving at once
        config = AdmConfig(mu=1.0, tol=tol)
        floor = SUB_TOL_FACTOR * tol
        schedule = [config.inner_tolerance(k, tol) for k in range(60)]
        assert schedule[0] == max(floor, SUB_TOL_START) > floor
        assert all(later <= earlier for earlier, later in zip(schedule, schedule[1:]))
        for k, tol_sub in enumerate(schedule):
            halved = SUB_TOL_START * 2.0**-k
            assert tol_sub == (floor if halved <= floor else halved)
        assert schedule[-1] == config.inner_tolerance(10**6, tol) == floor

    def test_halving_ignores_the_metric_and_the_tail_follows_it(self):
        config = AdmConfig(mu=1.0, tol=1e-3)
        switch = next(k for k in range(60) if SUB_TOL_START * 2.0**-k <= 1e-4)
        assert switch == 8
        for k in range(switch):
            assert config.inner_tolerance(k, 1.0) == SUB_TOL_START * 2.0**-k
            assert config.inner_tolerance(k, 0.0) == SUB_TOL_START * 2.0**-k
        # at the switch tol_sub may lie above the last halved value
        assert config.inner_tolerance(switch, 5e-3) == 0.1 * 5e-3 > 2e-2 / 2**7
        assert config.inner_tolerance(switch + 30, 2e-2) == 0.1 * 2e-2


class TestInnerToleranceSchedule:
    """The ADM loop hands outer iteration k's inner solve the tol_sub of the
    schedule, read at the least stopping metric of outer iterations 0..k.

    Each case runs the loop on all of X (the ``whole_problem`` fixture); solve
    runs it once per round, and each round's schedule starts at k = 0.
    """

    SEEDS = (2, 5)  # unit columns at (48, 200, 6); both run past the halving
    OUTER_LIMIT = 500  # max_outer_iter of the current-metric guard

    @staticmethod
    def _solve(monkeypatch, whole_problem, config, spec=None):
        inst, _ = make_instance(spec or GenSpec(n=48, p=200, s=6, sigma_noise=0.05, seed=2))
        seen = []

        def spy(obj, u0, tol_sub, callback=None):
            result = solve_subproblem(obj, u0, tol_sub, callback)
            seen.append((tol_sub, result.iterations))
            return result

        monkeypatch.setattr(adm_module, "solve_subproblem", spy)
        config = replace(config, mu=mu_rule("unit_columns", inst.p, inst.delta))
        _, _, report = whole_problem(inst, config)
        assert report.status == "converged"
        assert report.outer_iterations == len(seen) > 12  # past the halving
        assert report.inner_iteration_history == [iterations for _, iterations in seen]
        assert report.inner_tolerance_history == [tol_sub for tol_sub, _ in seen]
        assert sum(report.inner_iteration_history) == report.inner_iteration_total
        return report

    @staticmethod
    def _expected(report, tol=1e-3, factor=0.1):
        """The schedule, recomputed from the report's stopping metrics."""
        expected = []
        for k in range(report.outer_iterations):
            halved = SUB_TOL_START * 2.0**-k
            least = min(report.stopping_metric_history[: k + 1])
            expected.append(halved if halved > factor * tol else factor * max(tol, least))
        return expected

    def test_every_inner_solve_gets_the_scheduled_tolerance(self, monkeypatch, whole_problem):
        for seed in self.SEEDS:
            spec = GenSpec(n=48, p=200, s=6, sigma_noise=0.05, seed=seed)
            report = self._solve(monkeypatch, whole_problem, AdmConfig(mu=1.0, tol=1e-3), spec)
            seen = report.inner_tolerance_history
            assert seen == self._expected(report)
            assert seen[:8] == [SUB_TOL_START * 2.0**-k for k in range(8)]
            # the tail follows the metric: some inner solve stops above the floor
            assert max(seen[8:]) > 1e-4 and min(seen) >= 1e-4

    def test_tolerance_never_rises_after_the_switch(self, monkeypatch, whole_problem):
        for seed in self.SEEDS:
            spec = GenSpec(n=48, p=200, s=6, sigma_noise=0.05, seed=seed)
            config = AdmConfig(mu=1.0, tol=1e-3)
            seen = self._solve(monkeypatch, whole_problem, config, spec).inner_tolerance_history
            tail = seen[8:]
            assert all(later <= earlier for earlier, later in zip(tail, tail[1:]))

    def test_the_current_metric_in_place_of_the_least_diverges(self, whole_problem):
        # orthogonal rows at (360, 1280, 40), seed 2, at a quarter of the mu
        # rule (1 / delta, the rule before its factor 4): the shipped schedule
        # converges in about 100 outer iterations.  Read at the current
        # metric, the tail tolerance grows with the metric, the inner solves
        # stop almost at once, and the metric climbs past 1 until
        # max_outer_iter.  At the rule itself both schedules converge on
        # seeds 0-5, so the least metric guards the smaller penalties.
        spec = GenSpec(
            n=360, p=1280, s=40, sigma_noise=0.05, design_kind="orthogonal_rows", seed=2
        )
        inst, _ = make_instance(spec)
        mu, tol = mu_rule("orthogonal_rows", inst.p, inst.delta) / 4, tol_rule("orthogonal_rows")
        config = AdmConfig(mu=mu, tol=tol, max_outer_iter=self.OUTER_LIMIT)
        beta, lam, report = whole_problem(inst, config)
        assert report.status == "converged" and report.outer_iterations < self.OUTER_LIMIT
        certificate = feasibility_report(inst, beta, lam)
        assert max(certificate.primal_ratio, certificate.dual_ratio, certificate.gap_ratio) <= tol

        class CurrentMetric(AdmConfig):
            current = None  # the metric at the top of the current outer iteration

            def inner_tolerance(self, iteration, metric):
                return super().inner_tolerance(
                    iteration, metric if self.current is None else self.current
                )

        current = CurrentMetric(mu=mu, tol=tol, max_outer_iter=self.OUTER_LIMIT)
        _, _, diverged = whole_problem(
            inst, current, callback=lambda rec: setattr(current, "current", rec.metric)
        )
        assert diverged.status == "max_iter"
        assert diverged.stopping_metric_history[-1] > 1.0
        assert diverged.inner_iteration_total < report.inner_iteration_total


class TestScheduledDegenerateInstances:
    """Degenerate instances under the default inner-tolerance schedule.

    The solves of y = 0 and of delta at or above max_j |x_j^T y| / d_j start
    from a nonzero beta0, so the schedule runs while beta travels to the
    optimum beta = 0; a schedule tied to the outer metric could stall there.
    Every solve must converge far inside max_outer_iter and pass the dense
    certificate at its tol.
    """

    TOL = 1e-3
    OUTER_LIMIT = 500  # a twentieth of the default max_outer_iter

    def _check(self, X, y, delta, beta0=None):
        inst = Instance(X=X, y=y, delta=delta)
        config = AdmConfig(mu=mu_rule("unit_columns", inst.p, delta), tol=self.TOL)
        assert SUB_TOL_START > SUB_TOL_FACTOR * config.tol
        beta, lam, report = solve(inst, config, beta0=beta0)
        assert report.status == "converged"
        assert 1 <= report.outer_iterations <= self.OUTER_LIMIT < config.max_outer_iter
        certificate = certificate_dense(X, y, delta, beta, lam)
        assert max(certificate[f"{name}_ratio"] for name in ("primal", "dual", "gap")) <= self.TOL
        return beta

    @staticmethod
    def _case(seed):
        inst, truth = make_instance(GenSpec(n=48, p=200, s=6, sigma_noise=0.05, seed=seed))
        rng = np.random.default_rng(seed)
        beta0 = np.where(rng.random(inst.p) < 0.1, rng.standard_normal(inst.p), 0.0)
        return np.array(inst.X), inst.y, inst.delta, truth, beta0, rng

    @pytest.mark.parametrize("seed", range(3))
    def test_zero_response_from_a_nonzero_start(self, seed):
        X, _, delta, _, beta0, _ = self._case(seed)
        assert not self._check(X, np.zeros(X.shape[0]), delta, beta0).any()

    @pytest.mark.parametrize("factor", [1.0, 2.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_delta_at_or_above_the_zero_threshold_from_a_nonzero_start(self, seed, factor):
        X, y, _, _, beta0, _ = self._case(seed)
        level = float(np.abs((X.T @ y) / np.linalg.norm(X, axis=0)).max())
        assert not self._check(X, y, factor * level, beta0).any()

    @pytest.mark.parametrize("seed", range(3))
    def test_duplicate_columns(self, seed):
        X, _, delta, truth, _, rng = self._case(seed)
        X[:, 100:120] = X[:, :20]
        y = X @ truth.beta_true + 0.05 * rng.standard_normal(X.shape[0])
        assert self._check(X, y, delta).any()

    @pytest.mark.parametrize("seed", range(3))
    def test_more_rows_than_columns(self, seed):
        rng = np.random.default_rng(80 + seed)
        n, p = 150, 50
        X = rng.standard_normal((n, p))
        X /= np.linalg.norm(X, axis=0)
        signal = np.where(rng.random(p) < 0.1, rng.standard_normal(p), 0.0)
        y = X @ signal + 0.05 * rng.standard_normal(n)
        assert self._check(X, y, 0.05 * np.sqrt(2 * np.log(p))).any()


class TestScreenedStart:
    """The default start on degenerate instances; each solve passes the dense
    certificate at its tol."""

    TOL = 1e-3

    def _solve(self, inst, beta0=None):
        config = AdmConfig(mu=mu_rule("unit_columns", inst.p, inst.delta), tol=self.TOL)
        beta, lam, report = solve(inst, config, beta0=beta0)
        assert report.status == "converged"
        certificate = certificate_dense(inst.X, inst.y, inst.delta, beta, lam)
        assert max(certificate[f"{name}_ratio"] for name in ("primal", "dual", "gap")) <= self.TOL
        return beta, lam, report

    @staticmethod
    def _sparse(seed):
        inst, _ = make_instance(GenSpec(n=48, p=200, s=6, sigma_noise=0.05, seed=seed))
        return inst

    def test_top_by_partition_equals_the_stable_argsort(self):
        # random draws with many ties, signed zeros among them, and every k
        rng = np.random.default_rng(35)
        for draw in range(300):
            p = int(rng.integers(1, 40))
            scores = rng.integers(0, 4 if draw % 2 else 40, size=p) / 4.0
            scores[rng.random(p) < 0.2] = -0.0
            for k in range(p + 1):
                got, expected = adm_module._top(scores, k), top_by_argsort(scores, k)
                assert got.dtype == expected.dtype and np.array_equal(got, expected), (draw, k)

    @pytest.mark.parametrize("seed", range(2))
    def test_zero_response_gives_the_zero_start_and_no_product(self, products, seed):
        X = np.array(self._sparse(seed).X)
        inst = Instance(X=X, y=np.zeros(X.shape[0]), delta=0.1)
        products.watch(inst)
        assert not screened_start(inst).any()
        beta, _, report = self._solve(inst)
        assert report.start_support == 0 and report.outer_iterations == 0
        assert not beta.any()
        assert not products.calls and products.x_products == 0

    @pytest.mark.parametrize("factor", [1.0, 2.0])
    @pytest.mark.parametrize("seed", range(2))
    def test_delta_at_or_above_the_zero_threshold_returns_at_once(self, seed, factor):
        inst = self._sparse(seed)
        level = float((np.abs(inst.xty) / inst.d).max())
        inst = Instance(X=inst.X, y=inst.y, delta=factor * level)
        assert not screened_start(inst).any()
        beta, _, report = self._solve(inst)
        assert report.start_support == 0 and report.outer_iterations == 0
        assert not beta.any()

    @pytest.mark.parametrize("seed", range(2))
    def test_delta_within_tol_below_the_threshold_returns_at_once(self, seed):
        # beta = 0 misses feasibility by far less than tol, as when the caller's
        # delta equals the largest score up to rounding
        inst = self._sparse(seed)
        level = float((np.abs(inst.xty) / inst.d).max())
        inst = Instance(X=inst.X, y=inst.y, delta=level - 1e-6)
        assert screened_start(inst).any()
        assert not screened_start(inst, tol=self.TOL).any()
        beta, _, report = self._solve(inst)
        assert report.start_support == 0 and report.outer_iterations == 0
        assert not beta.any()
        assert report.stopping_metric_history == [pytest.approx(1e-6, rel=1e-6)]

    @pytest.mark.parametrize("seed", range(2))
    def test_duplicate_columns_give_the_minimum_norm_fit(self, seed):
        inst = self._sparse(seed)
        X = np.array(inst.X)
        best = int(np.argmax(np.abs(inst.xty) / inst.d))
        twin = (best + 1) % inst.p
        X[:, twin] = X[:, best]  # the twin ties with the best-ranked column
        inst = Instance(X=X, y=inst.y, delta=inst.delta)
        start = screened_start(inst)
        k = inst.n // START_ROWS_PER_COLUMN
        support = np.flatnonzero(start)
        assert support.size == k and (best in support or twin in support)
        # the minimum-norm least-squares fit on its own support
        expected = np.linalg.pinv(X[:, support]) @ inst.y
        assert np.abs(start[support] - expected).max() <= 1e-10 * np.abs(expected).max()
        # twins inside the support share their coefficient; seed 0 keeps both,
        # and on seed 1 a refit moves the support past one of them
        assert (best in support and twin in support) == (seed == 0)
        if seed == 0:
            assert start[best] == pytest.approx(start[twin], rel=1e-10)
        _, _, report = self._solve(inst)
        assert report.start_support == k

    @pytest.mark.parametrize("seed", range(2))
    def test_more_rows_than_columns_fits_at_most_p_columns(self, seed):
        rng = np.random.default_rng(90 + seed)
        n, p = 150, 10
        X = rng.standard_normal((n, p))
        X /= np.linalg.norm(X, axis=0)
        y = X @ rng.standard_normal(p) + 0.05 * rng.standard_normal(n)
        inst = Instance(X=X, y=y, delta=0.05 * np.sqrt(2 * np.log(p)))
        assert n // START_ROWS_PER_COLUMN > p
        start = screened_start(inst)  # k = p: least squares on all of X
        expected, *_ = np.linalg.lstsq(X, y, rcond=None)
        assert np.abs(start - expected).max() <= 1e-10 * np.abs(expected).max()
        _, _, report = self._solve(inst)
        assert report.start_support == p

    @pytest.mark.parametrize("n", [1, 5, START_ROWS_PER_COLUMN - 1])
    def test_fewer_rows_than_the_rule_asks_keep_the_zero_start(self, n):
        rng = np.random.default_rng(91 + n)
        inst = _instance(rng, n=n, p=12)
        assert n // START_ROWS_PER_COLUMN == 0
        assert not screened_start(inst).any()
        beta, lam, report = self._solve(inst)
        beta_zero, lam_zero, _ = self._solve(inst, beta0=np.zeros(inst.p))
        assert report.start_support == 0
        assert np.array_equal(beta, beta_zero) and np.array_equal(lam, lam_zero)

    @staticmethod
    def _htp_step(inst, start):
        """One step of hard-thresholding pursuit from ``start``, densely: the
        support T' of the k largest |beta_j + x_j^T r / d_j^2| (ties to the
        lower index) and the least-squares fit on it."""
        support = np.flatnonzero(start)
        residual = inst.y - np.asarray(inst.X) @ start
        scores = np.abs(start + (np.asarray(inst.X).T @ residual) / inst.d**2)
        candidate = np.sort(np.argsort(-scores, kind="stable")[: support.size])
        fit = np.zeros(inst.p)
        fit[candidate] = np.linalg.pinv(np.asarray(inst.X)[:, candidate]) @ inst.y
        return support, candidate, fit

    # (n, p, s, sigma, seed): (48, 200) ends at fixed points, and (128, 2048)
    # on the residual rule (see TestOuterCost)
    @pytest.mark.parametrize(
        "n, p, s, sigma, seed",
        [(48, 200, 6, sigma, seed) for sigma in (0.05, 0.01) for seed in range(4)]
        + [(128, 2048, 8, 0.01, 3)],
    )
    def test_the_support_is_a_fixed_point_or_the_refit_would_not_lower_the_residual(
        self, n, p, s, sigma, seed
    ):
        inst, _ = make_instance(GenSpec(n=n, p=p, s=s, sigma_noise=sigma, seed=seed))
        start = screened_start(inst)
        support, candidate, fit = self._htp_step(inst, start)
        assert support.size == inst.n // START_ROWS_PER_COLUMN
        expected = np.linalg.pinv(np.asarray(inst.X)[:, support]) @ inst.y
        assert np.abs(start[support] - expected).max() <= 1e-10 * np.abs(expected).max()
        if (n, p) == (128, 2048):
            assert not np.array_equal(candidate, support)
        if not np.array_equal(candidate, support):
            residual = np.linalg.norm(inst.y - np.asarray(inst.X) @ start)
            assert np.linalg.norm(inst.y - np.asarray(inst.X) @ fit) >= residual * (1 - 1e-12)

    def test_the_residual_rule_stops_the_refinement(self, products):
        # y = e1; column 0 correlates 0.6 with y and ranks first, column 1
        # 0.5.  Off the fit on column 0, x_1^T r = 0.5 + 0.3 * 0.6 = 0.68 >
        # 0.6, so the step moves to column 1, whose fit leaves the larger
        # residual: sqrt(0.75) against 0.8.  Zero rows make n = 9, so k = 1.
        X = np.zeros((START_ROWS_PER_COLUMN, 2))
        X[:3, 0] = [0.6, 0.8, 0.0]
        X[:3, 1] = [0.5, -0.75, math.sqrt(0.1875)]
        y = np.zeros(START_ROWS_PER_COLUMN)
        y[0] = 1.0
        inst = Instance(X=X, y=y, delta=0.1)
        start = screened_start(inst)
        support, candidate, fit = self._htp_step(inst, start)
        assert list(support) == [0] and list(candidate) == [1]
        assert start[0] == pytest.approx(0.6, rel=1e-12)
        assert np.linalg.norm(y - X @ fit) == pytest.approx(math.sqrt(0.75), rel=1e-12)
        products.reset()
        beta0, gram_beta0, refits = adm_module._screened_start(inst, DesignOperator(inst.X), 0.0)
        assert refits == 1 and np.array_equal(beta0, start)
        # two X beta (the kept fit and the rejected refit), one X^T r
        assert products.calls == {"matvec": 2, "rmatvec": 1}
        assert np.abs(gram_beta0 - X.T @ (X @ start)).max() <= 1e-15
        _, _, report = self._solve(inst)
        assert report.start_rounds == 1 and report.start_support == 1

    @staticmethod
    def _no_refit_cases():
        """(name, instance, the round-0 start) for each case the refinement skips."""
        rng = np.random.default_rng(93)
        few = _instance(rng, n=START_ROWS_PER_COLUMN - 1, p=12)  # k = 0
        sparse = TestScreenedStart._sparse(0)
        zero_y = Instance(X=sparse.X, y=np.zeros(sparse.n), delta=0.1)
        level = float((np.abs(sparse.xty) / sparse.d).max())
        at_level = Instance(X=sparse.X, y=sparse.y, delta=level)
        n, p = 150, 10  # k = p: every column is taken
        X = rng.standard_normal((n, p))
        X /= np.linalg.norm(X, axis=0)
        y = X @ rng.standard_normal(p) + 0.05 * rng.standard_normal(n)
        tall = Instance(X=X, y=y, delta=0.05 * np.sqrt(2 * np.log(p)))
        return [
            ("k = 0", few, np.zeros(few.p)),
            ("y = 0", zero_y, np.zeros(zero_y.p)),
            ("delta at the threshold", at_level, np.zeros(at_level.p)),
            ("n > p", tall, least_squares(DesignOperator(tall.X), tall.y, np.arange(p))),
        ]

    def test_cases_without_a_refit_keep_the_round_zero_bytes(self):
        # from a zero start the solve from the round-0 start passed as beta0
        # makes the same products.  With k = p the start reads G beta0 off
        # its X^T r and the given beta0 forms it as X^T (X beta0): the two
        # differ by rounding, and the solves keep their counts
        for name, inst, expected in self._no_refit_cases():
            assert np.array_equal(screened_start(inst), expected), name
            beta, lam, report = self._solve(inst)
            beta_given, lam_given, given = self._solve(inst, beta0=expected)
            assert report.start_rounds == 0, name
            if expected.any():
                assert (report.outer_iterations, report.inner_iteration_total) == (
                    given.outer_iterations, given.inner_iteration_total), name
                for v, w in ((beta, beta_given), (lam, lam_given)):
                    assert np.abs(v - w).max() <= 1e-12 * max(np.abs(w).max(), 1.0), name
            else:
                assert beta.tobytes() == beta_given.tobytes(), name
                assert lam.tobytes() == lam_given.tobytes(), name

    def test_all_columns_take_one_fit_and_read_g_beta0_off_its_x_t_r(self, products):
        # n >= 9p, so k = p: the fit on all columns is the only support, its
        # HTP step returns it, and the loop stops with one X b and one X^T r
        rng = np.random.default_rng(94)
        n, p = 9 * 12, 12
        inst = _instance(rng, n=n, p=p)
        X = np.asarray(inst.X)
        products.watch(inst)
        beta0, gram_beta0, refits = adm_module._screened_start(inst, DesignOperator(inst.X), 0.0)
        assert refits == 0 and np.count_nonzero(beta0) == p
        assert products.calls == {"matvec": 1, "rmatvec": 1}
        expected = X.T @ (X @ beta0)
        assert np.abs(gram_beta0 - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_the_start_does_not_depend_on_the_blas_thread_count(self):
        script = (
            "import hashlib\n"
            "from dantzig_adm.adm import _screened_start\n"
            "from dantzig_adm.core import DesignOperator\n"
            "from dantzig_adm.datagen import GenSpec, make_instance\n"
            "spec = GenSpec(n=720, p=2560, s=80, sigma_noise=0.01, seed=0)\n"
            "inst, _ = make_instance(spec)\n"
            "start = _screened_start(inst, DesignOperator(inst.X), 0.0)[0]\n"
            "for v in (inst.X, inst.y, inst.xty, start):\n"
            "    print(hashlib.sha256(v.tobytes()).hexdigest())\n"
        )
        src = Path(adm_module.__file__).resolve().parent.parent
        runs = []
        for threads in ("1", "2"):
            env = {
                **os.environ,
                "OPENBLAS_NUM_THREADS": threads,
                "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]),
            }
            run = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env,
                timeout=120,
            )
            assert run.returncode == 0, run.stderr
            runs.append(run.stdout.split())
        assert len(runs[0]) == 4
        assert runs[0] == runs[1]  # X, y, X^T y and the start



class TestBlasThreads:
    """A solve's bytes do not depend on the BLAS thread count."""

    def test_a_solve_gives_the_same_bytes_on_one_and_two_threads(self):
        # unit columns at (720, 2560, 80), sigma 0.05, seed 100: the rounds
        # make their products with a formed G_W, which OpenBLAS sums in
        # another order on two threads than on one; smaller instances kept
        # their bytes unpinned
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("fewer than 2 CPUs")
        previous = core_module.set_blas_threads(1)
        if previous is None:
            pytest.skip("numpy bundles no OpenBLAS with a thread-count setter here")
        try:
            inst, _ = make_instance(GenSpec(n=720, p=2560, s=80, sigma_noise=0.05, seed=100))
            config = AdmConfig(mu=mu_rule("unit_columns", inst.p, inst.delta),
                               tol=tol_rule("unit_columns"))
            answers = []
            for threads in (1, 2):
                core_module.set_blas_threads(threads)
                beta, lam, report = solve(inst, config)
                answers.append((beta.tobytes(), lam.tobytes(), report.status,
                                report.outer_iterations, report.inner_iteration_total))
                # the solve puts back the count it was called with
                assert core_module.set_blas_threads(threads) == threads
        finally:
            core_module.set_blas_threads(previous)
        assert answers[0][2] == "converged"
        assert answers[0] == answers[1]


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

        def recording(obj, u0, tol_sub, callback=None):
            seen.append(np.array(u0))
            return original(obj, u0, tol_sub, callback)

        monkeypatch.setattr(adm_module, "solve_subproblem", recording)
        beta0 = rng.standard_normal(8)
        solve(inst, AdmConfig(mu=1.0, tol=1e-4, max_outer_iter=3), beta0=beta0)
        assert seen and np.array_equal(seen[0], beta0)

    @pytest.mark.parametrize(
        "name, start, message",
        [("beta0", np.where(np.arange(8) == 3, math.nan, 0.0), "beta0 must be finite"),
         ("lambda0", np.where(np.arange(8) == 3, math.inf, 0.0), "lambda0 must be finite"),
         ("beta0", np.zeros(7), "beta0 must have length 8, got 7"),
         ("lambda0", np.zeros(9), "lambda0 must have length 8, got 9"),
         ("beta0", np.zeros((8, 1)), "beta0 must be one-dimensional, got shape (8, 1)"),
         ("lambda0", np.zeros((1, 8)), "lambda0 must be one-dimensional, got shape (1, 8)")],
        ids=["beta0-nan", "lambda0-inf", "beta0-short", "lambda0-long", "beta0-2d", "lambda0-2d"],
    )
    def test_non_finite_start_rejected(self, name, start, message):
        inst = _instance(np.random.default_rng(24), n=5, p=8)
        with pytest.raises(ValueError, match=re.escape(message)):
            solve(inst, AdmConfig(mu=1.0, tol=1e-4), **{name: start})

    def test_a_given_start_builds_one_operator_on_x(self, monkeypatch):
        # the start's Gram products go through the solve's own operator
        rng = np.random.default_rng(25)
        inst = _instance(rng, n=20, p=60)
        built, init = [], DesignOperator.__init__

        def spy(self, X):
            built.append(X)
            init(self, X)

        monkeypatch.setattr(DesignOperator, "__init__", spy)
        beta0, lambda0 = np.zeros(60), np.zeros(60)
        beta0[[3, 17]], lambda0[[5, 40]] = rng.standard_normal(2), rng.standard_normal(2)
        solve(inst, AdmConfig(mu=1.0, tol=1e-4, max_outer_iter=5), beta0=beta0, lambda0=lambda0)
        assert sum(X is inst.X for X in built) == 1

    @pytest.mark.parametrize("beta0, seed", [(None, 12), ("zero", 4)], ids=["None", "zero"])
    def test_a_step_lost_to_rounding_ends_the_inner_solve(self, monkeypatch, beta0, seed):
        # at tol = 1e-9 an inner solve accepts a step so short that u + alpha d
        # equals u: the inner solve ends stationary there instead of raising
        # in bb_step, and the outer loop runs on, to convergence at seed 12
        # from the screened start and at seed 4 from the zero start
        inst, _ = make_instance(GenSpec(n=48, p=200, s=5, sigma_noise=0.05, seed=seed))
        config = AdmConfig(mu=mu_rule("unit_columns", inst.p, inst.delta), tol=1e-9)
        lost, search = [], subsolver_module.line_search

        def recording(obj, point, *args):
            alpha, trial = search(obj, point, *args)
            lost.append(np.array_equal(trial.u, point.u))
            return alpha, trial

        monkeypatch.setattr(subsolver_module, "line_search", recording)
        start = None if beta0 is None else np.zeros(inst.p)
        _, _, report = solve(inst, config, beta0=start)
        assert any(lost)
        assert report.status == "converged" and report.stopping_metric_history[-1] <= 1e-9

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

        def exploding(obj, u0, tol_sub, callback=None):
            u = np.full_like(np.asarray(u0), np.nan)
            return SubsolverResult(u=u, iterations=1, status="converged", residual=u, gradient=u)

        monkeypatch.setattr(adm_module, "solve_subproblem", exploding)
        beta, lam, report = solve(inst, AdmConfig(mu=1.0, tol=1e-6))
        assert report.status == "numerical_failure"
        assert report.outer_iterations == 1

    def test_subsolver_failures_counted_and_run_continues(self, monkeypatch):
        rng = np.random.default_rng(27)
        inst = _instance(rng, n=5, p=8)
        original = adm_module.solve_subproblem
        calls = {"k": 0}

        def flaky(obj, u0, tol_sub, callback=None):
            result = original(obj, u0, tol_sub, callback)
            calls["k"] += 1
            if calls["k"] == 1:
                return replace(result, status="max_iter")
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
            # multiplier identity against an independent dense residual, on
            # the round's columns W (the record is zero off W)
            _, z, beta, lam, lam_prev = _on_round(inst, rec)
            W = np.arange(inst.p) if rec.columns is None else rec.columns
            r = G[np.ix_(W, W)] @ beta - h[W] - z
            err = np.abs(lam - lam_prev - mu * r).max()
            assert err <= 1e-12 * (1.0 + np.abs(lam_prev).max())
