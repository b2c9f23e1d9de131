import numpy as np
import pytest
from collections import deque
from hypothesis import given, settings
from hypothesis import strategies as st

from dantzig_adm.core import Instance, apply_gram, soft_thresh
from dantzig_adm.subsolver import (
    InnerState,
    LineSearchError,
    SubproblemObjective,
    SubsolverConfig,
    bb_step,
    grad_fk,
    inner_termination_metric,
    line_search,
    search_direction,
    solve_subproblem,
)

from oracles import (
    dense_gram,
    ista_reference,
    penalized_value_dense,
    prox_l1_scalar,
    random_instance_arrays,
    smooth_value_dense,
)


def _objective(rng, n=6, p=10, mu=2.0):
    X, y, delta = random_instance_arrays(rng, n, p)
    inst = Instance(X=X, y=y, delta=delta)
    z = rng.standard_normal(p)
    lam = rng.standard_normal(p)
    return SubproblemObjective(inst, z, lam, mu)


def _scalar_objective(x_entry=1.0, y_val=0.0, mu=1.0, z=0.0, lam=0.0):
    """1-d problem: f(u) = (mu/2) (x^2 u - (x y + z - lam/mu))^2."""
    inst = Instance(X=np.array([[x_entry]]), y=np.array([y_val]), delta=1.0)
    return SubproblemObjective(inst, np.array([z]), np.array([lam]), mu)


class TestObjective:
    def test_requires_positive_mu(self):
        inst = Instance(X=np.eye(3), y=np.zeros(3), delta=1.0)
        with pytest.raises(ValueError):
            SubproblemObjective(inst, np.zeros(3), np.zeros(3), 0.0)

    def test_requires_matching_lengths(self):
        inst = Instance(X=np.eye(3), y=np.zeros(3), delta=1.0)
        with pytest.raises(ValueError):
            SubproblemObjective(inst, np.zeros(4), np.zeros(3), 1.0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_value_is_nonnegative_and_matches_dense(self, seed):
        rng = np.random.default_rng(seed)
        obj = _objective(rng)
        u = rng.standard_normal(obj.inst.p)
        value = obj.value(u)
        assert value >= 0.0
        dense = smooth_value_dense(obj.inst.X, obj.inst.y, obj.z_fixed, obj.lambda_fixed, obj.mu, u)
        assert value == pytest.approx(dense, rel=1e-9, abs=1e-9)


class TestGradFk:
    def test_zero_residual_gives_zero_gradient(self):
        rng = np.random.default_rng(10)
        X, y, delta = random_instance_arrays(rng, 5, 8)
        inst = Instance(X=X, y=y, delta=delta)
        u = rng.standard_normal(8)
        lam = rng.standard_normal(8)
        mu = 1.7
        # choose z so that the residual at u vanishes
        z = dense_gram(X) @ u - X.T @ y + lam / mu
        obj = SubproblemObjective(inst, z, lam, mu)
        assert np.allclose(grad_fk(obj, u), 0.0, atol=1e-10)

    def test_identity_design_gradient_is_mu_u(self):
        inst = Instance(X=np.eye(6), y=np.zeros(6), delta=1.0)
        obj = SubproblemObjective(inst, np.zeros(6), np.zeros(6), 3.5)
        u = np.linspace(-2, 2, 6)
        assert np.allclose(grad_fk(obj, u), 3.5 * u, atol=1e-12)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(5):
            obj = _objective(rng, n=5, p=7, mu=1.3)
            u = rng.standard_normal(7)
            g = grad_fk(obj, u)
            for _ in range(10):
                v = rng.standard_normal(7)
                v /= np.linalg.norm(v)
                fd = (obj.value(u + h * v) - obj.value(u - h * v)) / (2 * h)
                assert fd == pytest.approx(float(g @ v), rel=1e-5, abs=1e-7)


class TestSearchDirection:
    def test_zero_direction_at_minimizer(self):
        # min (mu/2)(u - c)^2 + |u| has solution soft_thresh(c, 1/mu)
        mu, c = 1.0, 5.0
        obj = _scalar_objective(x_entry=1.0, y_val=c, mu=mu)
        u_star = soft_thresh(np.array([c]), 1.0 / mu)
        d, delta = search_direction(obj, u_star, 1.0)
        assert np.allclose(d, 0.0, atol=1e-12)
        assert delta == pytest.approx(0.0, abs=1e-12)

    def test_zero_gradient_off_origin(self):
        # with grad f(u) = 0 and |u_i| > bar_alpha the step is -bar_alpha * sgn(u)
        rng = np.random.default_rng(12)
        X, y, delta = random_instance_arrays(rng, 5, 8)
        inst = Instance(X=X, y=y, delta=delta)
        u = np.array([2.0, -3.0, 1.5, 2.2, -1.1, 4.0, -2.5, 1.01])
        lam = rng.standard_normal(8)
        mu = 2.0
        z = dense_gram(X) @ u - X.T @ y + lam / mu
        obj = SubproblemObjective(inst, z, lam, mu)
        bar_alpha = 0.5
        d, _ = search_direction(obj, u, bar_alpha)
        assert np.allclose(d, -bar_alpha * np.sign(u), atol=1e-9)

    def test_invalid_bar_alpha(self):
        obj = _scalar_objective()
        with pytest.raises(ValueError):
            search_direction(obj, np.zeros(1), 0.0)
        with pytest.raises(ValueError):
            search_direction(obj, np.zeros(1), 1.5)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), bar_alpha=st.floats(1e-6, 1.0))
    def test_delta_nonpositive_and_matches_prox_oracle(self, seed, bar_alpha):
        rng = np.random.default_rng(seed)
        obj = _objective(rng, n=4, p=6)
        u = rng.standard_normal(6)
        g = grad_fk(obj, u)
        d, delta = search_direction(obj, u, bar_alpha, grad=g)
        assert delta <= 1e-12
        # independent evaluation of the definition
        target = u + d
        delta_alt = float(g @ d) + np.abs(target).sum() - np.abs(u).sum()
        assert delta == pytest.approx(delta_alt, rel=1e-12, abs=1e-12)
        # direction equals the per-coordinate prox step
        expected = np.array(
            [prox_l1_scalar(float(ui - bar_alpha * gi), bar_alpha) for ui, gi in zip(u, g)]
        )
        assert np.allclose(target, expected, atol=1e-9)


def _armijo_accepts(obj, u, window_vals, d, delta, alpha, sigma_ls):
    """Independent Armijo predicate evaluated with dense formulas."""
    trial = u + alpha * d
    value = penalized_value_dense(
        obj.inst.X, obj.inst.y, obj.z_fixed, obj.lambda_fixed, obj.mu, trial
    )
    return value <= max(window_vals) + sigma_ls * alpha * delta


def _curvature_rejections(mu):
    """How many powers of eta an independent Armijo check rejects at curvature mu."""
    obj = _scalar_objective(x_entry=1.0, y_val=1.0, mu=mu)
    u = np.array([1.5])
    config = SubsolverConfig(tol_sub=1e-8, memory=0)
    g = grad_fk(obj, u)
    d, delta = search_direction(obj, u, 1.0, grad=g)
    window = [
        penalized_value_dense(obj.inst.X, obj.inst.y, obj.z_fixed, obj.lambda_fixed, obj.mu, u)
    ]
    rejections = 0
    alpha = 1.0
    while not _armijo_accepts(obj, u, window, d, delta, alpha, config.sigma_ls):
        rejections += 1
        alpha *= config.eta
        if rejections > 50:
            break
    return rejections, (obj, u, d, delta, config)


def _steep_quadratic_case():
    """(obj, u, d, delta, config) whose first step the Armijo oracle rejects exactly twice.

    Bisects the curvature of a scalar quadratic until the independent
    predicate rejects alpha = 1 and alpha = eta but accepts eta^2.
    """
    lo, hi = 1.0, 4096.0
    assert _curvature_rejections(lo)[0] <= 2
    assert _curvature_rejections(hi)[0] > 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        rejections, case = _curvature_rejections(mid)
        if rejections == 2:
            return case
        if rejections < 2:
            lo = mid
        else:
            hi = mid
    raise AssertionError("no curvature with exactly two rejections found")


class TestLineSearch:
    def _state(self, obj, u, memory):
        value = penalized_value_dense(
            obj.inst.X, obj.inst.y, obj.z_fixed, obj.lambda_fixed, obj.mu, u
        )
        return InnerState(u=u, bar_alpha=1.0, window=deque([value], maxlen=memory + 1))

    def test_full_step_accepted_on_gentle_quadratic(self):
        # f(u) = u^2 / 2; from u = 1 along d = -1 the full step ends at the origin
        obj = _scalar_objective(mu=1.0)
        u = np.array([1.0])
        d = np.array([-1.0])
        g = grad_fk(obj, u)
        delta = float(g @ d) + abs(u[0] + d[0]) - abs(u[0])
        config = SubsolverConfig(tol_sub=1e-8)
        state = self._state(obj, u, config.memory)
        alpha, trial = line_search(obj, state, d, delta, config)
        assert alpha == 1.0
        assert trial.penalized == pytest.approx(0.0, abs=1e-12)

    def test_requires_negative_delta(self):
        obj = _scalar_objective()
        config = SubsolverConfig(tol_sub=1e-8)
        state = self._state(obj, np.array([1.0]), config.memory)
        with pytest.raises(ValueError):
            line_search(obj, state, np.array([-1.0]), 0.0, config)

    def test_exactly_two_backtracks_on_steep_quadratic(self):
        # the independent predicate rejects exactly alpha = 1 and alpha = eta
        # here; check the implementation agrees
        obj, u, d, delta, config = _steep_quadratic_case()
        state = self._state(obj, u, config.memory)
        alpha, _ = line_search(obj, state, d, delta, config)
        assert alpha == pytest.approx(config.eta**2)

    def test_memory_enables_nonmonotone_acceptance(self):
        # a large past objective in the window lets M=1 accept the full step
        # that a monotone M=0 search rejects
        found = False
        for mu in np.linspace(2.0, 600.0, 400):
            obj = _scalar_objective(x_entry=1.0, y_val=1.0, mu=mu)
            u = np.array([1.5])
            config = SubsolverConfig(tol_sub=1e-8, memory=1)
            g = grad_fk(obj, u)
            d, delta = search_direction(obj, u, 1.0, grad=g)
            if delta >= 0:
                continue
            current = penalized_value_dense(
                obj.inst.X, obj.inst.y, obj.z_fixed, obj.lambda_fixed, obj.mu, u
            )
            stale = current + 50.0  # pretend the previous iterate was much worse
            rejects_monotone = not _armijo_accepts(obj, u, [current], d, delta, 1.0, config.sigma_ls)
            accepts_windowed = _armijo_accepts(
                obj, u, [stale, current], d, delta, 1.0, config.sigma_ls
            )
            if not (rejects_monotone and accepts_windowed):
                continue
            found = True
            state_mono = InnerState(u=u, bar_alpha=1.0, window=deque([current], maxlen=1))
            alpha_mono, _ = line_search(obj, state_mono, d, delta, config)
            state_window = InnerState(
                u=u, bar_alpha=1.0, window=deque([stale, current], maxlen=2)
            )
            alpha_window, _ = line_search(obj, state_window, d, delta, config)
            assert alpha_window == 1.0
            assert alpha_mono < 1.0
            break
        assert found, "no curvature exhibiting nonmonotone acceptance found"

    def test_backtrack_budget_exhaustion_raises(self):
        rejections, (obj, u, d, delta, config) = _curvature_rejections(4096.0)
        assert rejections > 3
        tight = SubsolverConfig(tol_sub=1e-8, memory=0, max_backtracks=3)
        state = self._state(obj, u, tight.memory)
        with pytest.raises(LineSearchError):
            line_search(obj, state, d, delta, tight)

    def test_given_residuals_cost_no_gram_product(self, gram_calls):
        obj, u, d, delta, config = _steep_quadratic_case()
        state = self._state(obj, u, config.memory)
        residuals = (obj.residual(u), apply_gram(obj.inst, d))
        gram_calls[0] = 0
        alpha, _ = line_search(obj, state, d, delta, config, residuals=residuals)
        assert alpha == pytest.approx(config.eta**2)
        assert gram_calls[0] == 0
        line_search(obj, state, d, delta, config)
        assert gram_calls[0] == 2

    @pytest.mark.parametrize("seed", range(12))
    def test_reused_residual_matches_fresh_evaluation(self, seed):
        # unit spectral step on a random problem, so many searches backtrack
        rng = np.random.default_rng(100 + seed)
        obj = _objective(rng, n=6, p=10, mu=float(rng.uniform(0.5, 20.0)))
        u = rng.standard_normal(10)
        d, delta = search_direction(obj, u, 1.0)
        config = SubsolverConfig(tol_sub=1e-8, memory=0)
        state = self._state(obj, u, config.memory)
        residuals = (obj.residual(u), apply_gram(obj.inst, d))
        _, trial = line_search(obj, state, d, delta, config, residuals=residuals)
        fresh = obj.residual(trial.u)
        assert np.linalg.norm(trial.residual - fresh) <= 1e-12 * np.linalg.norm(fresh)
        dense = penalized_value_dense(
            obj.inst.X, obj.inst.y, obj.z_fixed, obj.lambda_fixed, obj.mu, trial.u
        )
        assert trial.penalized == pytest.approx(dense, rel=1e-10, abs=1e-12)
        assert trial.smooth == pytest.approx(obj.value(trial.u), rel=1e-10, abs=1e-12)

    def test_reused_residual_matches_fresh_after_backtracks(self):
        obj, u, d, delta, config = _steep_quadratic_case()
        state = self._state(obj, u, config.memory)
        residuals = (obj.residual(u), apply_gram(obj.inst, d))
        alpha, trial = line_search(obj, state, d, delta, config, residuals=residuals)
        assert alpha < 1.0
        fresh = obj.residual(trial.u)
        assert np.linalg.norm(trial.residual - fresh) <= 1e-12 * np.linalg.norm(fresh)
        dense = penalized_value_dense(
            obj.inst.X, obj.inst.y, obj.z_fixed, obj.lambda_fixed, obj.mu, trial.u
        )
        assert trial.penalized == pytest.approx(dense, rel=1e-10, abs=1e-12)


class TestBBStep:
    def test_collinear_gradient_difference(self):
        config = SubsolverConfig(tol_sub=1e-8)
        s = np.array([1.0, -2.0, 0.5])
        assert bb_step(s, 4.0 * s, config) == pytest.approx(0.25)

    @pytest.mark.parametrize("scale", [0.0, -3.0])
    def test_nonpositive_curvature_returns_one(self, scale):
        config = SubsolverConfig(tol_sub=1e-8)
        s = np.array([1.0, 2.0])
        assert bb_step(s, scale * s, config) == 1.0

    def test_lower_clamp(self):
        config = SubsolverConfig(tol_sub=1e-8)
        s = np.array([1e-6])
        g = np.array([1e6])
        assert bb_step(s, g, config) == config.alpha_lo

    def test_upper_clamp(self):
        config = SubsolverConfig(tol_sub=1e-8)
        s = np.array([2.0])
        g = np.array([1.0])  # ratio 4 > 1
        assert bb_step(s, g, config) == 1.0

    def test_zero_step_rejected(self):
        config = SubsolverConfig(tol_sub=1e-8)
        with pytest.raises(ValueError):
            bb_step(np.zeros(3), np.ones(3), config)


class TestInnerTerminationMetric:
    def test_zero_at_scalar_minimizer(self):
        mu, c = 2.0, 3.0
        obj = _scalar_objective(x_entry=1.0, y_val=c, mu=mu)
        u_star = soft_thresh(np.array([c]), 1.0 / mu)
        assert inner_termination_metric(obj, u_star) <= 1e-12

    def test_zero_in_small_gradient_dead_zone(self):
        # at u = 0 with every |grad component| <= 1 the thresholded step stays at 0
        inst = Instance(X=np.eye(4), y=np.full(4, 0.2), delta=1.0)
        obj = SubproblemObjective(inst, np.zeros(4), np.zeros(4), 1.0)
        g = grad_fk(obj, np.zeros(4))
        assert np.all(np.abs(g) <= 1.0)
        assert obj.value(np.zeros(4)) <= 1.0
        assert inner_termination_metric(obj, np.zeros(4)) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_independent_evaluation(self, seed):
        rng = np.random.default_rng(seed)
        obj = _objective(rng, n=4, p=6)
        u = rng.standard_normal(6)
        got = inner_termination_metric(obj, u)
        G = dense_gram(obj.inst.X)
        c = obj.inst.X.T @ obj.inst.y + obj.z_fixed - obj.lambda_fixed / obj.mu
        grad = obj.mu * (G @ (G @ u - c))
        moved = np.sign(u - grad) * np.maximum(np.abs(u - grad) - 1.0, 0.0)
        fval = 0.5 * obj.mu * float((G @ u - c) @ (G @ u - c))
        expected = np.linalg.norm(moved - u) / max(fval + np.abs(u).sum(), 1.0)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)


class TestGramCost:
    """Cost model: start-up, then two Gram products per iteration whatever the backtracks."""

    def _run(self, obj, u0, config):
        alphas = []
        result = solve_subproblem(obj, u0, config, callback=lambda rec: alphas.append(rec.alpha))
        return result, alphas

    def test_two_products_per_iteration_with_backtracks(self, gram_calls):
        obj, u, _, _, config = _steep_quadratic_case()
        gram_calls[0] = 0
        result, alphas = self._run(obj, u, config)
        assert result.succeeded
        assert result.iterations >= 1
        assert alphas[0] == pytest.approx(config.eta**2)  # two backtracks, one iteration
        assert gram_calls[0] == 2 + 2 * result.iterations

    def test_warm_start_gram_saves_one_product(self, gram_calls):
        obj, u, _, _, config = _steep_quadratic_case()
        gram_calls[0] = 0
        cold, _ = self._run(obj, u, config)
        assert gram_calls[0] == 2 + 2 * cold.iterations
        warm_obj = SubproblemObjective(
            obj.inst, obj.z_fixed, obj.lambda_fixed, obj.mu, gram_u0=apply_gram(obj.inst, u)
        )
        gram_calls[0] = 0
        warm, _ = self._run(warm_obj, u, config)
        assert gram_calls[0] == 1 + 2 * warm.iterations
        assert warm.iterations == cold.iterations
        assert np.array_equal(warm.u, cold.u)

    def test_backtracks_cost_nothing_on_random_problem(self, gram_calls):
        rng = np.random.default_rng(17)
        obj = _objective(rng, n=8, p=14, mu=6.0)
        config = SubsolverConfig(tol_sub=1e-9, memory=0)
        result, alphas = self._run(obj, np.zeros(14), config)
        assert result.succeeded
        assert any(alpha < 1.0 for alpha in alphas)
        assert gram_calls[0] == 2 + 2 * result.iterations

    def test_gram_u0_length_checked(self):
        inst = Instance(X=np.eye(3), y=np.zeros(3), delta=1.0)
        with pytest.raises(ValueError):
            SubproblemObjective(inst, np.zeros(3), np.zeros(3), 1.0, gram_u0=np.zeros(4))


class TestSolveSubproblem:
    def test_warm_start_at_minimizer_returns_immediately(self):
        mu, c = 1.5, 4.0
        obj = _scalar_objective(x_entry=1.0, y_val=c, mu=mu)
        u_star = soft_thresh(np.array([c]), 1.0 / mu)
        result = solve_subproblem(obj, u_star, SubsolverConfig(tol_sub=1e-8))
        assert result.succeeded
        assert result.iterations <= 1
        assert np.allclose(result.u, u_star, atol=1e-10)

    def test_requires_tolerance(self):
        obj = _scalar_objective()
        with pytest.raises(ValueError):
            solve_subproblem(obj, np.zeros(1), SubsolverConfig())

    def test_identity_design_matches_separable_closed_form(self):
        rng = np.random.default_rng(13)
        n = 10
        inst = Instance(X=np.eye(n), y=rng.standard_normal(n), delta=1.0)
        z = rng.standard_normal(n)
        lam = rng.standard_normal(n)
        mu = 2.3
        obj = SubproblemObjective(inst, z, lam, mu)
        result = solve_subproblem(obj, np.zeros(n), SubsolverConfig(tol_sub=1e-12))
        c = inst.y + z - lam / mu
        closed_form = soft_thresh(c, 1.0 / mu)
        assert result.succeeded
        assert np.allclose(result.u, closed_form, atol=1e-6)

    def test_matches_reference_proximal_gradient(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((20, 50))
        y = rng.standard_normal(20)
        z = rng.standard_normal(50)
        lam = rng.standard_normal(50)
        mu = 1.2
        inst = Instance(X=X, y=y, delta=1.0)
        obj = SubproblemObjective(inst, z, lam, mu)
        result = solve_subproblem(obj, np.zeros(50), SubsolverConfig(tol_sub=1e-10, max_inner_iter=100000))
        got = obj.value(result.u) + np.abs(result.u).sum()
        _, reference, converged = ista_reference(X, y, z, lam, mu, np.zeros(50))
        assert converged
        assert got == pytest.approx(reference, rel=1e-6)

    def test_invariants_along_the_run(self):
        rng = np.random.default_rng(15)
        obj = _objective(rng, n=8, p=14, mu=1.5)
        config = SubsolverConfig(tol_sub=1e-9)
        records = []
        result = solve_subproblem(obj, np.zeros(14), config, callback=records.append)
        assert result.succeeded
        assert records, "expected at least one accepted step"
        running_min = np.inf
        mins = []
        for rec in records:
            assert rec.delta <= 0.0
            assert rec.penalized <= rec.window_max + config.sigma_ls * rec.alpha * rec.delta
            assert config.alpha_lo <= rec.bar_alpha <= 1.0
            assert config.alpha_lo <= rec.bar_alpha_next <= 1.0
            # independent re-evaluation of the accepted objective
            dense = penalized_value_dense(
                obj.inst.X, obj.inst.y, obj.z_fixed, obj.lambda_fixed, obj.mu, rec.u
            )
            assert dense == pytest.approx(rec.penalized, rel=1e-9, abs=1e-9)
            running_min = min(running_min, rec.penalized)
            mins.append(running_min)
        assert all(a >= b for a, b in zip(mins, mins[1:]))

    def test_iteration_cap_returns_best_iterate_flagged(self):
        rng = np.random.default_rng(16)
        obj = _objective(rng, n=8, p=14, mu=1.5)
        config = SubsolverConfig(tol_sub=1e-13, max_inner_iter=3)
        result = solve_subproblem(obj, np.zeros(14), config)
        assert result.status == "max_iter"
        assert result.iterations == 3
        assert np.isfinite(result.u).all()
