import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dantzig_adm.adm import AdmConfig, solve
from dantzig_adm.core import Instance
from dantzig_adm.datagen import GenSpec, make_instance, mu_rule, tol_rule
from dantzig_adm.evaluation import (
    evaluate_solution,
    feasibility_report,
    rho_metrics,
    two_stage,
)

from oracles import (
    certificate_dense,
    lp_dual_enumeration,
    lp_primal_enumeration,
    random_instance_arrays,
)


def _instance(rng, n=10, p=20):
    X = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    return Instance(X=X, y=y, delta=0.5)


class TestTwoStage:
    def test_zero_estimate_stays_zero(self):
        rng = np.random.default_rng(0)
        inst = _instance(rng)
        assert np.array_equal(two_stage(np.zeros(inst.p), inst, 0.1), np.zeros(inst.p))

    def test_requires_positive_sigma(self):
        rng = np.random.default_rng(1)
        inst = _instance(rng)
        with pytest.raises(ValueError):
            two_stage(np.zeros(inst.p), inst, 0.0)

    def test_orthonormal_columns_refit_is_correlation(self):
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        X = np.zeros((8, 6))
        X[:, :3] = q
        X[:, 3:] = rng.standard_normal((8, 3))
        y = rng.standard_normal(8)
        inst = Instance(X=X, y=y, delta=0.5)
        beta_tilde = np.array([1.0, -2.0, 0.5, 0.0, 0.0, 0.0])
        beta_hat = two_stage(beta_tilde, inst, 0.1)
        assert np.allclose(beta_hat[:3], q.T @ y, atol=1e-10)
        assert np.array_equal(beta_hat[3:], np.zeros(3))

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(3)
        inst = _instance(rng, n=10, p=20)
        beta_tilde = np.zeros(20)
        chosen = rng.choice(20, size=6, replace=False)
        beta_tilde[chosen] = rng.uniform(1.0, 3.0, size=6) * rng.choice([-1, 1], size=6)
        sigma = 0.1
        beta_hat = two_stage(beta_tilde, inst, sigma)
        support = np.sort(chosen)
        Xs = inst.X[:, support]
        expected = np.linalg.solve(Xs.T @ Xs, Xs.T @ inst.y)
        assert np.allclose(beta_hat[support], expected, atol=1e-8)
        off = np.setdiff1d(np.arange(20), support)
        assert np.array_equal(beta_hat[off], np.zeros(off.size))

    def test_threshold_is_strict(self):
        rng = np.random.default_rng(4)
        inst = _instance(rng, n=6, p=4)
        sigma = 0.25
        beta_tilde = np.array([2 * sigma, 2 * sigma + 1e-9, -2 * sigma, 5.0])
        beta_hat = two_stage(beta_tilde, inst, sigma)
        assert beta_hat[0] == 0.0 and beta_hat[2] == 0.0
        assert beta_hat[1] != 0.0 or beta_hat[3] != 0.0

    def test_oversized_support_uses_min_norm_fit_and_flags(self):
        rng = np.random.default_rng(5)
        inst = _instance(rng, n=5, p=12)
        beta_tilde = np.ones(12)  # all 12 survive truncation, more than n = 5
        sigma = 0.1
        beta_hat = two_stage(beta_tilde, inst, sigma)
        # underdetermined least squares interpolates the response
        assert np.allclose(inst.X @ beta_hat, inst.y, atol=1e-8)
        beta_true = np.zeros(12)
        beta_true[0] = 1.0
        result = evaluate_solution(inst, beta_tilde, beta_true, sigma, beta_hat=beta_hat)
        assert result.oversized_support

    def test_idempotent_after_exact_recovery(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((12, 18))
        beta_true = np.zeros(18)
        beta_true[[2, 7, 11]] = [1.5, -2.0, 3.0]
        y = X @ beta_true  # noiseless response
        inst = Instance(X=X, y=y, delta=0.5)
        sigma = 0.05
        first = two_stage(beta_true, inst, sigma)
        second = two_stage(first, inst, sigma)
        assert np.allclose(first, beta_true, atol=1e-10)
        assert np.allclose(second, first, atol=1e-10)


class TestRhoMetrics:
    def test_perfect_estimate_scores_zero(self):
        beta = np.array([1.0, 0.0, -2.0])
        assert rho_metrics(beta, beta, 0.1) == 0.0

    def test_zero_estimate_against_strong_signal(self):
        sigma = 0.1
        beta_true = np.zeros(10)
        beta_true[:4] = [2.0, -1.5, 3.0, 1.0]  # all magnitudes >= sigma
        expected = float((beta_true**2).sum()) / (4 * sigma**2)
        assert rho_metrics(np.zeros(10), beta_true, sigma) == pytest.approx(expected, rel=1e-12)

    def test_matches_term_by_term_evaluation(self):
        rng = np.random.default_rng(7)
        beta_est = rng.standard_normal(15)
        beta_true = rng.standard_normal(15)
        sigma = 0.3
        num = sum((e - t) ** 2 for e, t in zip(beta_est, beta_true))
        den = sum(min(t**2, sigma**2) for t in beta_true)
        assert rho_metrics(beta_est, beta_true, sigma) == pytest.approx(num / den, rel=1e-12)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            rho_metrics(np.ones(3), np.zeros(3), 0.0)

    def test_zero_truth_with_noise_names_either_cause(self):
        with pytest.raises(ValueError, match=r"beta_true = 0 or sigma = 0"):
            rho_metrics(np.ones(3), np.zeros(3), 0.1)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        beta_est = rng.standard_normal(12)
        beta_true = rng.standard_normal(12)
        perm = rng.permutation(12)
        assert rho_metrics(beta_est, beta_true, 0.2) == pytest.approx(
            rho_metrics(beta_est[perm], beta_true[perm], 0.2), rel=1e-12
        )

    def test_denominator_is_ideal_risk_on_generated_instances(self):
        spec = GenSpec(n=30, p=90, s=9, sigma_noise=0.05, seed=3)
        _, truth = make_instance(spec)
        denom = float(np.minimum(truth.beta_true**2, spec.sigma_noise**2).sum())
        assert denom == pytest.approx(spec.s * spec.sigma_noise**2, rel=1e-12)


class TestFeasibilityReport:
    def test_zero_multiplier(self):
        rng = np.random.default_rng(8)
        inst = _instance(rng)
        beta = rng.standard_normal(inst.p)
        report = feasibility_report(inst, beta, np.zeros(inst.p))
        assert report.dual_violation == 0.0
        assert report.gap == pytest.approx(np.abs(beta).sum(), rel=1e-12)

    def test_feasible_zero_estimate(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((6, 9))
        y = 1e-4 * rng.standard_normal(6)
        inst = Instance(X=X, y=y, delta=1.0)
        report = feasibility_report(inst, np.zeros(9), np.zeros(9))
        assert report.primal_violation == 0.0

    def test_small_at_enumerated_optimal_pair(self):
        rng = np.random.default_rng(10)
        X, y, delta = random_instance_arrays(rng, 3, 5, delta_scale=0.4)
        inst = Instance(X=X, y=y, delta=delta)
        _, beta_star = lp_primal_enumeration(X, y, delta)
        _, lam_star = lp_dual_enumeration(X, y, delta)
        report = feasibility_report(inst, beta_star, lam_star)
        assert report.primal_violation <= 1e-8
        assert report.dual_violation <= 1e-8
        assert report.gap <= 1e-8

    @pytest.mark.parametrize("tall", [False, True])
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 12),
        p=st.integers(2, 12),
        duplicate=st.booleans(),
        zero_response=st.booleans(),
        zero_multiplier=st.booleans(),
    )
    def test_matches_dense_certificate(
        self, tall, seed, n, p, duplicate, zero_response, zero_multiplier
    ):
        # n > p when tall; duplicate columns, y = 0 and lambda = 0 as drawn
        rng = np.random.default_rng(seed)
        shape = (max(n, p) + 1, min(n, p)) if tall else (min(n, p), max(n, p))
        X = rng.standard_normal(shape)
        if duplicate:
            X[:, -1] = X[:, 0]
        y = np.zeros(shape[0]) if zero_response else rng.standard_normal(shape[0])
        delta = float(rng.uniform(0.05, 2.0))
        beta = np.where(rng.random(shape[1]) < 0.5, rng.standard_normal(shape[1]), 0.0)
        lam = np.zeros(shape[1]) if zero_multiplier else rng.standard_normal(shape[1])
        report = feasibility_report(Instance(X=X, y=y, delta=delta), beta, lam)
        expected = certificate_dense(X, y, delta, beta, lam)
        assert set(report._fields) == set(expected)
        for name, value in expected.items():
            assert getattr(report, name) == pytest.approx(value, rel=1e-9, abs=1e-12), name


class TestEvaluateSolution:
    def test_counts_true_and_false_positives(self):
        rng = np.random.default_rng(11)
        inst = _instance(rng, n=8, p=10)
        beta_true = np.zeros(10)
        beta_true[[1, 4]] = [2.0, -3.0]
        beta_tilde = np.zeros(10)
        beta_tilde[[1, 6]] = [1.9, 0.8]
        result = evaluate_solution(inst, beta_tilde, beta_true, 0.1)
        assert result.true_positives == 1
        assert result.false_positives == 1
        assert np.array_equal(result.support_true, [1, 4])
        assert np.array_equal(result.support_estimated, [1, 6])

    @pytest.mark.parametrize("length", [9, 11])
    def test_truth_of_another_length_is_rejected_by_name(self, length):
        inst = _instance(np.random.default_rng(12), n=8, p=10)
        with pytest.raises(ValueError, match=rf"beta_true must have length 10, got {length}"):
            evaluate_solution(inst, np.zeros(10), np.ones(length), 0.1)

    def test_refit_improves_error_on_simulated_recoveries(self):
        rho2, rho2_orig = [], []
        for seed in range(10):
            spec = GenSpec(n=90, p=320, s=10, sigma_noise=0.05, seed=seed)
            inst, truth = make_instance(spec)
            mu = mu_rule(spec.design_kind, spec.p, inst.delta)
            beta, _, report = solve(inst, AdmConfig(mu=mu, tol=tol_rule(spec.design_kind)))
            assert report.status == "converged"
            result = evaluate_solution(inst, beta, truth.beta_true, spec.sigma_noise)
            rho2.append(result.rho2)
            rho2_orig.append(result.rho2_orig)
        assert np.median(rho2) <= np.median(rho2_orig)
