from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dantzig_adm.subsolver as subsolver_module
from dantzig_adm.core import Instance, apply_gram, soft_thresh
from dantzig_adm.subsolver import (
    ALPHA_LO,
    ETA,
    SIGMA_LS,
    InnerState,
    LineSearchError,
    SubproblemObjective,
    WarmStart,
    bb_step,
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


def _gradient(obj, u):
    """grad f(u) as the inner solver forms it, from a warm start at u."""
    start = WarmStart.at(obj, u)
    return start.gradient(np.zeros_like(start.q0))


def _dense(obj):
    """The arguments (X, y, z, lambda, mu) of the dense oracles for obj."""
    return obj.inst.X, obj.inst.y, obj.z_fixed, obj.lambda_fixed, obj.mu


def _scalar_objective(x_entry=1.0, y_val=0.0, mu=1.0, z=0.0, lam=0.0):
    """1-d problem: f(u) = (mu/2) (x^2 u - (x y + z - lam/mu))^2."""
    inst = Instance(X=np.array([[x_entry]]), y=np.array([y_val]), delta=1.0)
    return SubproblemObjective(inst, np.array([z]), np.array([lam]), mu)


class TestObjective:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_value_is_nonnegative_and_matches_dense(self, seed):
        # the smooth value the inner solver starts from, (mu/2) ||r0||^2
        rng = np.random.default_rng(seed)
        obj = _objective(rng)
        u = rng.standard_normal(obj.inst.p)
        r0 = WarmStart.at(obj, u).r0
        value = 0.5 * obj.mu * float(r0 @ r0)
        assert value >= 0.0
        dense = smooth_value_dense(*_dense(obj), u)
        assert value == pytest.approx(dense, rel=1e-9, abs=1e-9)


class TestGradFk:
    """The gradient mu X^T (q0 + K E) of the inner solver, at E = 0."""

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
        assert np.allclose(_gradient(obj, u), 0.0, atol=1e-10)

    def test_identity_design_gradient_is_mu_u(self):
        inst = Instance(X=np.eye(6), y=np.zeros(6), delta=1.0)
        obj = SubproblemObjective(inst, np.zeros(6), np.zeros(6), 3.5)
        u = np.linspace(-2, 2, 6)
        assert np.allclose(_gradient(obj, u), 3.5 * u, atol=1e-12)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(5):
            obj = _objective(rng, n=5, p=7, mu=1.3)
            u = rng.standard_normal(7)
            g = _gradient(obj, u)
            for _ in range(10):
                v = rng.standard_normal(7)
                v /= np.linalg.norm(v)
                fd = (
                    smooth_value_dense(*_dense(obj), u + h * v)
                    - smooth_value_dense(*_dense(obj), u - h * v)
                ) / (2 * h)
                assert fd == pytest.approx(float(g @ v), rel=1e-5, abs=1e-7)


class TestSearchDirection:
    def test_zero_direction_at_minimizer(self):
        # min (mu/2)(u - c)^2 + |u| has solution soft_thresh(c, 1/mu)
        mu, c = 1.0, 5.0
        obj = _scalar_objective(x_entry=1.0, y_val=c, mu=mu)
        u_star = soft_thresh(np.array([c]), 1.0 / mu)
        d, delta = search_direction(u_star, 1.0, _gradient(obj, u_star))
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
        d, _ = search_direction(u, bar_alpha, _gradient(obj, u))
        assert np.allclose(d, -bar_alpha * np.sign(u), atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), bar_alpha=st.floats(1e-6, 1.0))
    def test_delta_nonpositive_and_matches_prox_oracle(self, seed, bar_alpha):
        rng = np.random.default_rng(seed)
        obj = _objective(rng, n=4, p=6)
        u = rng.standard_normal(6)
        g = _gradient(obj, u)
        d, delta = search_direction(u, bar_alpha, g)
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


def _armijo_accepts(obj, u, window_vals, d, delta, alpha):
    """Independent Armijo predicate evaluated with dense formulas."""
    trial = u + alpha * d
    value = penalized_value_dense(*_dense(obj), trial)
    return value <= max(window_vals) + SIGMA_LS * alpha * delta


def _curvature_rejections(mu):
    """How many powers of eta an independent Armijo check rejects at curvature mu."""
    obj = _scalar_objective(x_entry=1.0, y_val=1.0, mu=mu)
    u = np.array([1.5])
    d, delta = search_direction(u, 1.0, _gradient(obj, u))
    window = [penalized_value_dense(*_dense(obj), u)]
    rejections = 0
    alpha = 1.0
    while not _armijo_accepts(obj, u, window, d, delta, alpha):
        rejections += 1
        alpha *= ETA
        if rejections > 50:
            break
    return rejections, (obj, u, d, delta)


def _steep_quadratic_case():
    """(obj, u, d, delta) whose first step the Armijo oracle rejects exactly twice.

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


def _watched(products, obj):
    """obj rebuilt on a counted view of its X, so its design operator counts too."""
    products.watch(obj.inst)
    products.reset()
    return SubproblemObjective(obj.inst, obj.z_fixed, obj.lambda_fixed, obj.mu,
                               gram_u0=obj.gram_u0)


def _line_search(obj, u, d, delta, window=None, u0=None):
    """line_search from u, with the solver seen from warm start u0 (default u).

    The state at u holds its shift E and K E, the products of the direction
    u - u0 in the operator's space, and its smooth value from the dense
    oracle; ``window`` defaults to u's own penalized value.
    """
    u0 = u if u0 is None else u0
    dense = _dense(obj)
    if window is None:
        window = [penalized_value_dense(*dense, u)]
    shift, kshift = obj.design.direction_products(u - u0)
    state = InnerState(
        u=u,
        shift=shift,
        kshift=kshift,
        smooth=smooth_value_dense(*dense, u),
        window=deque(window, maxlen=len(window)),
    )
    e, ke = obj.design.direction_products(d)
    start = WarmStart.at(obj, u0)
    return line_search(start, state, d, delta, e, ke)


class _RejectingReference:
    """A window value that rejects every trial and records the trial's penalized value.

    ``penalized <= reference + SIGMA_LS * alpha * delta`` reaches __ge__ with
    the penalized value the line search computed for that trial.
    """

    def __init__(self):
        self.seen = []

    def __add__(self, other):
        return self

    def __ge__(self, penalized):
        self.seen.append(penalized)
        return False


class TestLineSearch:
    def test_full_step_accepted_on_gentle_quadratic(self):
        # f(u) = u^2 / 2; from u = 1 along d = -1 the full step ends at the origin
        obj = _scalar_objective(mu=1.0)
        u = np.array([1.0])
        d = np.array([-1.0])
        g = _gradient(obj, u)
        delta = float(g @ d) + abs(u[0] + d[0]) - abs(u[0])
        alpha, trial = _line_search(obj, u, d, delta)
        assert alpha == 1.0
        assert trial.penalized == pytest.approx(0.0, abs=1e-12)

    def test_exactly_two_backtracks_on_steep_quadratic(self):
        # the independent predicate rejects exactly alpha = 1 and alpha = eta
        # here; check the implementation agrees
        obj, u, d, delta = _steep_quadratic_case()
        alpha, _ = _line_search(obj, u, d, delta)
        assert alpha == pytest.approx(ETA**2)

    def test_memory_enables_nonmonotone_acceptance(self):
        # a large past objective in the window lets M=1 accept the full step
        # that a monotone M=0 search rejects
        found = False
        for mu in np.linspace(2.0, 600.0, 400):
            obj = _scalar_objective(x_entry=1.0, y_val=1.0, mu=mu)
            u = np.array([1.5])
            d, delta = search_direction(u, 1.0, _gradient(obj, u))
            if delta >= 0:
                continue
            current = penalized_value_dense(*_dense(obj), u)
            stale = current + 50.0  # pretend the previous iterate was much worse
            rejects_monotone = not _armijo_accepts(obj, u, [current], d, delta, 1.0)
            accepts_windowed = _armijo_accepts(obj, u, [stale, current], d, delta, 1.0)
            if not (rejects_monotone and accepts_windowed):
                continue
            found = True
            alpha_mono, _ = _line_search(obj, u, d, delta, window=[current])
            alpha_window, _ = _line_search(obj, u, d, delta, window=[stale, current])
            assert alpha_window == 1.0
            assert alpha_mono < 1.0
            break
        assert found, "no curvature exhibiting nonmonotone acceptance found"

    def test_backtrack_budget_exhaustion_raises(self, monkeypatch):
        rejections, (obj, u, d, delta) = _curvature_rejections(4096.0)
        assert rejections > 3
        monkeypatch.setattr(subsolver_module, "MAX_BACKTRACKS", 3)
        with pytest.raises(LineSearchError):
            _line_search(obj, u, d, delta)

    def test_given_residuals_cost_no_gram_product(self, products):
        # given the warm start's residual and X d, K X d, the search makes no product
        obj, u, d, delta = _steep_quadratic_case()
        obj = _watched(products, obj)
        dense = _dense(obj)
        start = WarmStart.at(obj, u)
        e, ke = obj.design.direction_products(d)
        state = InnerState(
            u=u, shift=np.zeros(1), kshift=np.zeros(1), smooth=smooth_value_dense(*dense, u),
            window=deque([penalized_value_dense(*dense, u)], maxlen=1),
        )
        calls, x_products = sum(products.calls.values()), products.x_products
        alpha, _ = line_search(start, state, d, delta, e, ke)
        assert alpha == pytest.approx(ETA**2)
        assert sum(products.calls.values()) == calls
        assert products.x_products == x_products

    @pytest.mark.parametrize("seed", range(12))
    def test_reused_residual_matches_fresh_evaluation(self, monkeypatch, seed):
        # every trial value, from an iterate away from the warm start, against
        # a dense evaluation
        rng = np.random.default_rng(100 + seed)
        obj = _objective(rng, n=6, p=10, mu=float(rng.uniform(0.5, 20.0)))
        u0 = rng.standard_normal(10)
        u = u0 + rng.standard_normal(10)
        d, delta = search_direction(u, 1.0, _gradient(obj, u))
        monkeypatch.setattr(subsolver_module, "MAX_BACKTRACKS", 12)
        reference = _RejectingReference()
        with pytest.raises(LineSearchError):
            _line_search(obj, u, d, delta, window=[reference], u0=u0)
        assert len(reference.seen) == 12
        for k, value in enumerate(reference.seen):
            dense = penalized_value_dense(*_dense(obj), u + ETA**k * d)
            assert abs(value - dense) <= 1e-12 * max(1.0, abs(dense))

    def test_reused_residual_matches_fresh_after_backtracks(self):
        obj, u, d, delta = _steep_quadratic_case()
        u0 = u - 0.25
        alpha, trial = _line_search(obj, u, d, delta, u0=u0)
        assert alpha < 1.0
        fresh = obj.residual(trial.u)
        residual = WarmStart.at(obj, u0).residual(trial.shift)
        assert np.linalg.norm(residual - fresh) <= 1e-12 * np.linalg.norm(fresh)
        dense = penalized_value_dense(*_dense(obj), trial.u)
        assert trial.penalized == pytest.approx(dense, rel=1e-10, abs=1e-12)


class TestBBStep:
    def test_collinear_gradient_difference(self):
        s = np.array([1.0, -2.0, 0.5])
        assert bb_step(s, 4.0 * s) == pytest.approx(0.25)

    @pytest.mark.parametrize("scale", [0.0, -3.0])
    def test_nonpositive_curvature_returns_one(self, scale):
        s = np.array([1.0, 2.0])
        assert bb_step(s, scale * s) == 1.0

    def test_lower_clamp(self):
        s = np.array([1e-6])
        g = np.array([1e6])
        assert bb_step(s, g) == ALPHA_LO

    def test_upper_clamp(self):
        s = np.array([2.0])
        g = np.array([1.0])  # ratio 4 > 1
        assert bb_step(s, g) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-6, 1e6))
    def test_step_lies_in_the_range_search_direction_takes(self, seed, scale):
        rng = np.random.default_rng(seed)
        s = rng.standard_normal(5)
        g = scale * rng.standard_normal(5)
        assert ALPHA_LO <= bb_step(s, g) <= 1.0

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            bb_step(np.zeros(3), np.ones(3))


class TestInnerTerminationMetric:
    def test_zero_at_scalar_minimizer(self):
        mu, c = 2.0, 3.0
        obj = _scalar_objective(x_entry=1.0, y_val=c, mu=mu)
        u_star = soft_thresh(np.array([c]), 1.0 / mu)
        penalized = penalized_value_dense(*_dense(obj), u_star)
        assert inner_termination_metric(u_star, _gradient(obj, u_star), penalized) <= 1e-12

    def test_zero_in_small_gradient_dead_zone(self):
        # at u = 0 with every |grad component| <= 1 the thresholded step stays at 0
        inst = Instance(X=np.eye(4), y=np.full(4, 0.2), delta=1.0)
        obj = SubproblemObjective(inst, np.zeros(4), np.zeros(4), 1.0)
        g = _gradient(obj, np.zeros(4))
        assert np.all(np.abs(g) <= 1.0)
        penalized = penalized_value_dense(*_dense(obj), np.zeros(4))
        assert penalized <= 1.0
        assert inner_termination_metric(np.zeros(4), g, penalized) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_independent_evaluation(self, seed):
        rng = np.random.default_rng(seed)
        obj = _objective(rng, n=4, p=6)
        u = rng.standard_normal(6)
        penalized = penalized_value_dense(*_dense(obj), u)
        got = inner_termination_metric(u, _gradient(obj, u), penalized)
        G = dense_gram(obj.inst.X)
        c = obj.inst.X.T @ obj.inst.y + obj.z_fixed - obj.lambda_fixed / obj.mu
        grad = obj.mu * (G @ (G @ u - c))
        moved = np.sign(u - grad) * np.maximum(np.abs(u - grad) - 1.0, 0.0)
        fval = 0.5 * obj.mu * float((G @ u - c) @ (G @ u - c))
        expected = np.linalg.norm(moved - u) / max(fval + np.abs(u).sum(), 1.0)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)


class TestGramCost:
    """Cost model, counted through a counting view of X.

    In n-space (n <= p): start-up X r0 and X^T q0, each iteration X d,
    K (X d) and one X^T, whatever the backtracks, and a final iterate's
    residual one more X^T.  In the Gram space (p < n): start-up G r0, each
    iteration G d and one more product with G, and no product with X in the
    loop.  Either way the kernel (K or G) is formed once, and r0 costs one
    Gram product (X u0, X^T) unless gram_u0 is given.
    """

    def _run(self, obj, u0, tol_sub):
        alphas = []
        result = solve_subproblem(obj, u0, tol_sub, callback=lambda rec: alphas.append(rec.alpha))
        return result, alphas

    @staticmethod
    def _expected(iterations, cold=True, gram_space=False):
        """The calls of a solve that returns its final iterate."""
        gram = 1 if cold else 0
        if gram_space:
            expected = {"matvec": gram, "rmatvec": gram, "kernel_matvec": 1 + 2 * iterations}
        else:
            expected = {
                "matvec": gram + 1 + iterations,
                "rmatvec": gram + 2 + iterations,
                "kernel_matvec": iterations,
            }
        return {name: count for name, count in expected.items() if count}

    @staticmethod
    def _x_products(counts, inst):
        """Every X product is a counted call, or forms the kernel (once: one
        product per 64 of its rows)."""
        assert counts.outside == 0
        assert counts.x_products == (
            counts.calls["matvec"] + counts.calls["rmatvec"] + counts.forming_kernel(inst)
        )

    def test_two_products_per_iteration_with_backtracks(self, monkeypatch, products):
        monkeypatch.setattr(subsolver_module, "MEMORY", 0)  # monotone, as the oracle of the case
        obj, u, _, _ = _steep_quadratic_case()
        obj = _watched(products, obj)
        result, alphas = self._run(obj, u, 1e-8)
        assert result.succeeded
        assert result.iterations >= 1
        assert alphas[0] == pytest.approx(ETA**2)  # two backtracks, one iteration
        assert products.calls == self._expected(result.iterations)
        self._x_products(products, obj.inst)

    def test_warm_start_gram_saves_one_product(self, monkeypatch, products):
        monkeypatch.setattr(subsolver_module, "MEMORY", 0)  # monotone, as the oracle of the case
        obj, u, _, _ = _steep_quadratic_case()
        products.reset()
        cold, _ = self._run(obj, u, 1e-8)
        assert products.calls == self._expected(cold.iterations)
        warm_obj = SubproblemObjective(
            obj.inst, obj.z_fixed, obj.lambda_fixed, obj.mu, gram_u0=apply_gram(obj.inst, u)
        )
        products.reset()
        warm, _ = self._run(warm_obj, u, 1e-8)
        assert products.calls == self._expected(warm.iterations, cold=False)
        assert warm.iterations == cold.iterations
        assert np.array_equal(warm.u, cold.u)

    def test_backtracks_cost_nothing_on_random_problem(self, monkeypatch, products):
        monkeypatch.setattr(subsolver_module, "MEMORY", 0)  # monotone: more steps backtrack
        rng = np.random.default_rng(17)
        obj = _watched(products, _objective(rng, n=8, p=14, mu=6.0))
        result, alphas = self._run(obj, np.zeros(14), 1e-9)
        assert result.succeeded
        assert any(alpha < 1.0 for alpha in alphas)
        assert products.calls == self._expected(result.iterations)
        self._x_products(products, obj.inst)

    def test_more_rows_than_columns_runs_on_the_gram_matrix(self, products):
        # n > p: G = X^T X is formed once, and the loop makes two products with
        # it per iteration and none with X
        rng = np.random.default_rng(18)
        obj = _watched(products, _objective(rng, n=14, p=8, mu=6.0))
        result, _ = self._run(obj, np.zeros(8), 1e-9)
        assert result.succeeded and result.iterations > 0
        assert obj.design.kernel.shape == (8, 8)
        assert products.calls == self._expected(result.iterations, gram_space=True)
        self._x_products(products, obj.inst)
        assert products.x_products == 2 + products.forming_kernel(obj.inst)  # r0 and G


def _sparse_objective(seed, n=24, p=80, mu=None):
    """A unit-column problem with a 3-sparse signal b, and b as its warm start."""
    rng = np.random.default_rng(500 + seed)
    X = rng.standard_normal((n, p))
    X /= np.linalg.norm(X, axis=0)
    b = np.zeros(p)
    b[rng.choice(p, 3, replace=False)] = rng.choice([-3.0, 3.0], 3)
    inst = Instance(X=X, y=X @ b + 0.05 * rng.standard_normal(n), delta=1.0)
    z = 0.05 * rng.standard_normal(p)
    lam = 0.05 * rng.standard_normal(p)
    mu = float(rng.uniform(0.3, 0.8)) if mu is None else mu
    return SubproblemObjective(inst, z, lam, mu), b


_TIGHT = 1e-10  # tol_sub of TestSparseWarmStart, which runs with MAX_INNER_ITER at 200000


class TestSparseWarmStart:
    """Inner solves from a sparse warm start, as the ADM loop hands them.

    Each solve runs one loop on the operator it is given, whatever the
    start: the counts of :class:`TestGramCost`, every product with X, and a
    final iterate whose residual and gradient match a dense recomputation.
    """

    @pytest.fixture(autouse=True)
    def _room_for_tight_solves(self, monkeypatch):
        monkeypatch.setattr(subsolver_module, "MAX_INNER_ITER", 200000)

    @staticmethod
    def _assert_exact(obj, result):
        """The returned residual and gradient against a dense recomputation at u."""
        G = dense_gram(obj.inst.X)
        c = obj.inst.X.T @ obj.inst.y + obj.z_fixed - obj.lambda_fixed / obj.mu
        r = G @ result.u - c
        np.testing.assert_allclose(result.residual, r, rtol=0, atol=1e-10 * np.abs(c).max())
        np.testing.assert_allclose(
            result.gradient, obj.mu * (G @ r), rtol=0, atol=1e-10 * obj.mu * np.abs(G @ c).max()
        )

    @staticmethod
    def _assert_matches_reference(obj, result, u0):
        """The penalized value within 1e-6 of the independent reference (criterion 5's bound)."""
        dense = _dense(obj)
        _, reference, converged = ista_reference(*dense, u0)
        assert converged
        value = penalized_value_dense(*dense, result.u)
        assert abs(value - reference) <= 1e-6 * max(1.0, abs(reference))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_and_dense_products(self, seed):
        obj, b = _sparse_objective(seed)
        result = solve_subproblem(obj, b, _TIGHT)
        assert result.succeeded and result.iterations > 0
        self._assert_matches_reference(obj, result, b)
        self._assert_exact(obj, result)

    @pytest.mark.parametrize("seed", range(4))
    def test_product_counts(self, products, seed):
        obj, b = _sparse_objective(seed)
        obj = _watched(products, obj)
        result = solve_subproblem(obj, b, _TIGHT)
        assert result.succeeded
        assert products.calls == TestGramCost._expected(result.iterations)
        TestGramCost._x_products(products, obj.inst)

    def test_coordinates_off_the_start_enter(self, products):
        # the answer's support is not the start's: coordinates off supp(b)
        # leave zero, and the loop reaches them with the same products
        obj, b = _sparse_objective(0)
        obj = _watched(products, obj)
        result = solve_subproblem(obj, b, _TIGHT)
        assert result.succeeded
        assert np.setdiff1d(np.flatnonzero(result.u), np.flatnonzero(b)).size > 0
        assert products.calls == TestGramCost._expected(result.iterations)
        self._assert_matches_reference(obj, result, b)
        self._assert_exact(obj, result)

    def test_from_zero(self, products):
        obj, _ = _sparse_objective(0)
        obj = _watched(products, obj)
        result = solve_subproblem(obj, np.zeros(obj.inst.p), _TIGHT)
        assert result.succeeded and result.iterations > 1
        assert products.calls == TestGramCost._expected(result.iterations)
        TestGramCost._x_products(products, obj.inst)
        self._assert_exact(obj, result)

    @pytest.mark.parametrize("seed", range(4))
    def test_next_inner_problem(self, products, seed):
        # the next inner problem of an outer loop, with z moved a little and
        # X^T X u0 handed over from the first solve's residual: no Gram
        # product at the start, and the operator's K is reused
        obj, b = _sparse_objective(seed)
        first = solve_subproblem(obj, b, _TIGHT)
        rng = np.random.default_rng(seed)
        z = obj.z_fixed + 1e-3 * rng.standard_normal(obj.inst.p)
        gram_u = first.residual + obj.c
        nxt = SubproblemObjective(obj.inst, z, obj.lambda_fixed, obj.mu, gram_u0=gram_u,
                                  design=obj.design)
        products.reset()
        result = solve_subproblem(nxt, first.u, _TIGHT)
        assert result.succeeded and result.iterations > 0
        assert products.calls == TestGramCost._expected(result.iterations, cold=False)
        self._assert_matches_reference(nxt, result, first.u)
        self._assert_exact(nxt, result)
        # a fresh operator and a fresh Gram product take the same steps
        plain = SubproblemObjective(obj.inst, z, obj.lambda_fixed, obj.mu)
        fresh = solve_subproblem(plain, first.u, _TIGHT)
        assert fresh.iterations == result.iterations
        assert np.abs(fresh.u - result.u).max() <= 1e-10 * max(1.0, np.abs(fresh.u).max())

    @pytest.mark.parametrize("seed", range(4))
    def test_more_rows_than_columns(self, products, seed):
        # n > p: the loop runs on G = X^T X, formed once, with no product with X
        rng = np.random.default_rng(seed)
        n, p = 60, 40
        X = rng.standard_normal((n, p))
        X /= np.linalg.norm(X, axis=0)
        b = np.zeros(p)
        b[:2] = 3.0
        inst = Instance(X=X, y=X @ b + 0.05 * rng.standard_normal(n), delta=1.0)
        obj = _watched(products, SubproblemObjective(inst, np.zeros(p), np.zeros(p), 0.5))
        result = solve_subproblem(obj, np.zeros(p), _TIGHT)
        assert result.succeeded and result.iterations > 0
        assert obj.design.kernel.shape == (p, p)
        assert products.calls == TestGramCost._expected(result.iterations, gram_space=True)
        TestGramCost._x_products(products, obj.inst)
        self._assert_matches_reference(obj, result, np.zeros(p))
        self._assert_exact(obj, result)


class TestSolveSubproblem:
    def test_warm_start_at_minimizer_returns_immediately(self):
        mu, c = 1.5, 4.0
        obj = _scalar_objective(x_entry=1.0, y_val=c, mu=mu)
        u_star = soft_thresh(np.array([c]), 1.0 / mu)
        result = solve_subproblem(obj, u_star, 1e-8)
        assert result.succeeded
        assert result.iterations <= 1
        assert np.allclose(result.u, u_star, atol=1e-10)

    @pytest.mark.parametrize("seed", range(2))
    def test_helpers_get_what_the_loop_guarantees(self, monkeypatch, seed):
        # search_direction and line_search take bar_alpha and delta unchecked
        seen = {"bar_alpha": [], "delta": []}

        def direction(u, bar_alpha, grad):
            seen["bar_alpha"].append(bar_alpha)
            return search_direction(u, bar_alpha, grad)

        def search(start, state, d, delta, e, ke):
            seen["delta"].append(delta)
            return line_search(start, state, d, delta, e, ke)

        monkeypatch.setattr(subsolver_module, "search_direction", direction)
        monkeypatch.setattr(subsolver_module, "line_search", search)
        obj = _objective(np.random.default_rng(150 + seed), n=20, p=50, mu=1.5)
        result = solve_subproblem(obj, np.zeros(50), 1e-10)
        assert result.iterations > 5 and seen["delta"]
        assert all(0.0 < bar_alpha <= 1.0 for bar_alpha in seen["bar_alpha"])
        assert all(delta < 0.0 for delta in seen["delta"])

    def test_identity_design_matches_separable_closed_form(self):
        rng = np.random.default_rng(13)
        n = 10
        inst = Instance(X=np.eye(n), y=rng.standard_normal(n), delta=1.0)
        z = rng.standard_normal(n)
        lam = rng.standard_normal(n)
        mu = 2.3
        obj = SubproblemObjective(inst, z, lam, mu)
        result = solve_subproblem(obj, np.zeros(n), 1e-12)
        c = inst.y + z - lam / mu
        closed_form = soft_thresh(c, 1.0 / mu)
        assert result.succeeded
        assert np.allclose(result.u, closed_form, atol=1e-6)

    def test_matches_reference_proximal_gradient(self, monkeypatch):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((20, 50))
        y = rng.standard_normal(20)
        z = rng.standard_normal(50)
        lam = rng.standard_normal(50)
        mu = 1.2
        inst = Instance(X=X, y=y, delta=1.0)
        obj = SubproblemObjective(inst, z, lam, mu)
        monkeypatch.setattr(subsolver_module, "MAX_INNER_ITER", 100000)
        result = solve_subproblem(obj, np.zeros(50), 1e-10)
        got = penalized_value_dense(X, y, z, lam, mu, result.u)
        _, reference, converged = ista_reference(X, y, z, lam, mu, np.zeros(50))
        assert converged
        assert got == pytest.approx(reference, rel=1e-6)

    @pytest.mark.parametrize("seed", range(3))
    def test_gram_space_matches_reference_proximal_gradient(self, monkeypatch, seed):
        # n > p: the loop runs on G = X^T X; the ISTA reference knows nothing of it
        rng = np.random.default_rng(140 + seed)
        n, p = 50, 20
        X, y, delta = random_instance_arrays(rng, n, p)
        obj = SubproblemObjective(Instance(X=X, y=y, delta=delta), rng.standard_normal(p),
                                  rng.standard_normal(p), float(rng.uniform(0.5, 2.0)))
        assert obj.design.gram_space
        monkeypatch.setattr(subsolver_module, "MAX_INNER_ITER", 100000)
        result = solve_subproblem(obj, np.zeros(p), 1e-10)
        assert result.succeeded and result.iterations > 0
        _, reference, converged = ista_reference(*_dense(obj), np.zeros(p))
        assert converged
        assert penalized_value_dense(*_dense(obj), result.u) == pytest.approx(reference, rel=1e-6)

    def test_invariants_along_the_run(self):
        rng = np.random.default_rng(15)
        obj = _objective(rng, n=8, p=14, mu=1.5)
        records = []
        result = solve_subproblem(obj, np.zeros(14), 1e-9, callback=records.append)
        assert result.succeeded
        assert records, "expected at least one accepted step"
        running_min = np.inf
        mins = []
        for rec in records:
            assert rec.delta <= 0.0
            assert rec.penalized <= rec.window_max + SIGMA_LS * rec.alpha * rec.delta
            assert ALPHA_LO <= rec.bar_alpha <= 1.0
            assert ALPHA_LO <= rec.bar_alpha_next <= 1.0
            # independent re-evaluation of the accepted objective
            dense = penalized_value_dense(*_dense(obj), rec.u)
            assert dense == pytest.approx(rec.penalized, rel=1e-9, abs=1e-9)
            running_min = min(running_min, rec.penalized)
            mins.append(running_min)
        assert all(a >= b for a, b in zip(mins, mins[1:]))

    def test_iteration_cap_returns_best_iterate_flagged(self, monkeypatch):
        rng = np.random.default_rng(16)
        obj = _objective(rng, n=8, p=14, mu=1.5)
        monkeypatch.setattr(subsolver_module, "MAX_INNER_ITER", 3)
        result = solve_subproblem(obj, np.zeros(14), 1e-13)
        assert result.status == "max_iter"
        assert result.iterations == 3
        assert np.isfinite(result.u).all()
        assert result.residual is None and result.gradient is None

    @staticmethod
    def _best(obj, u0, records):
        """The iterate of least penalized value, u0 included; the first on a tie."""
        best_u, best = u0, penalized_value_dense(*_dense(obj), u0)
        for rec in records:
            if rec.penalized < best:
                best_u, best = rec.u, rec.penalized
        return best_u

    def test_converged_at_the_cap_is_a_final_iterate(self, monkeypatch):
        # unit columns and a sparse signal
        rng = np.random.default_rng(71)
        X = rng.standard_normal((12, 30))
        X /= np.linalg.norm(X, axis=0)
        signal = np.where(rng.random(30) < 0.2, rng.standard_normal(30), 0.0)
        inst = Instance(X=X, y=X @ signal + 0.05 * rng.standard_normal(12), delta=1.0)
        z, lam = 0.1 * rng.standard_normal(30), 0.1 * rng.standard_normal(30)
        obj = SubproblemObjective(inst, z, lam, 0.5)
        u0 = np.zeros(30)
        free = solve_subproblem(obj, u0, 1e-6)
        assert free.status == "converged"
        monkeypatch.setattr(subsolver_module, "MAX_INNER_ITER", free.iterations)
        capped = solve_subproblem(obj, u0, 1e-6)
        assert capped.status == "converged" and capped.iterations == free.iterations
        assert np.array_equal(capped.u, free.u)
        for name in ("residual", "gradient"):
            assert np.array_equal(getattr(capped, name), getattr(free, name))
        records = []
        monkeypatch.setattr(subsolver_module, "MAX_INNER_ITER", free.iterations - 1)
        short = solve_subproblem(obj, u0, 1e-6, callback=records.append)
        assert short.status == "max_iter" and not short.succeeded
        assert short.iterations == len(records) == free.iterations - 1
        assert short.residual is None and short.gradient is None
        assert np.array_equal(short.u, self._best(obj, u0, records))

    def test_line_search_failure_returns_the_best_iterate(self, monkeypatch):
        rng = np.random.default_rng(16)
        obj = _objective(rng, n=8, p=14, mu=1.5)
        u0 = np.zeros(14)
        searches = []

        def failing_fourth(*args):
            searches.append(1)
            if len(searches) == 4:
                raise LineSearchError("no acceptable steplength")
            return line_search(*args)

        monkeypatch.setattr(subsolver_module, "line_search", failing_fourth)
        records = []
        result = solve_subproblem(obj, u0, 1e-13, records.append)
        assert result.status == "line_search_failure" and not result.succeeded
        assert result.iterations == len(records) == 3
        assert result.residual is None and result.gradient is None
        assert np.array_equal(result.u, self._best(obj, u0, records))

    def test_an_accepted_step_that_leaves_u_unchanged_is_stationary(self, monkeypatch):
        # a step alpha d below half an ulp of every entry of u: bb_step would
        # see a zero step, so the solve ends at u with its residual and gradient
        rng = np.random.default_rng(16)
        obj = _objective(rng, n=8, p=14, mu=1.5)
        searches = []

        def lost_fourth(start, state, *args):
            searches.append(1)
            alpha, trial = line_search(start, state, *args)
            if len(searches) == 4:
                trial = replace(trial, u=state.u.copy())
            return alpha, trial

        monkeypatch.setattr(subsolver_module, "line_search", lost_fourth)
        records = []
        result = solve_subproblem(obj, np.zeros(14), 1e-13, records.append)
        assert result.status == "stationary" and result.succeeded
        assert result.iterations == len(records) == 3
        assert np.array_equal(result.u, records[-1].u)
        G = dense_gram(obj.inst.X)
        c = obj.inst.X.T @ obj.inst.y + obj.z_fixed - obj.lambda_fixed / obj.mu
        r = G @ result.u - c
        np.testing.assert_allclose(result.residual, r, rtol=0, atol=1e-10 * np.abs(c).max())

    @pytest.mark.parametrize("seed", range(4))
    def test_final_iterate_carries_its_residual_and_gradient(self, seed):
        rng = np.random.default_rng(60 + seed)
        obj = _objective(rng, n=8, p=14, mu=1.5)
        result = solve_subproblem(obj, np.zeros(14), 1e-9)
        assert result.succeeded and result.iterations > 0
        G = dense_gram(obj.inst.X)
        c = obj.inst.X.T @ obj.inst.y + obj.z_fixed - obj.lambda_fixed / obj.mu
        r = G @ result.u - c
        np.testing.assert_allclose(result.residual, r, rtol=0, atol=1e-10 * np.abs(c).max())
        np.testing.assert_allclose(
            result.gradient, obj.mu * (G @ r), rtol=0, atol=1e-10 * obj.mu * np.abs(G @ c).max()
        )
