"""Nonmonotone spectral gradient method for the l1-penalized inner problem.

The outer loop freezes (z, lambda, mu) and asks for an approximate minimizer of

    F(u) = f(u) + ||u||_1,    f(u) = (mu/2) ||X^T X u - X^T y - z + lambda/mu||_2^2.

Search directions come from a soft-threshold (prox-gradient) step at the
current spectral steplength, acceptance uses an Armijo test against the worst
objective over a short memory window, and the steplength is a safeguarded
Barzilai-Borwein update.

The iteration runs in n-space.  Let r(u) = X^T X u - c be the residual,
r0 = r(u0) at the warm start u0, q0 = X r0, and E = X (u - u0) the shift of
the iterate.  With the n x n kernel K = X X^T,

    r(u) = r0 + X^T E,    grad f(u) = mu X^T X r(u) = mu X^T (q0 + K E).

An iteration forms e = X d for the search direction d and then K e.  The
smooth part f is quadratic, so along d

    f(u + a d) = f(u) + a mu (q0 + K E).e + (a^2/2) mu e.K e,

and each line-search trial costs O(n + p) operations.  f is carried from
iterate to iterate this way, with an error relative to f itself.  Formed
afresh as (mu/2) (r0.r0 + 2 q0.E + E.K E) it would lose, to cancellation,
every digit by which f has fallen below f(u0), and a tightly converged
solve cannot afford that.  The gradient at the accepted point is one dense
X^T product.  So an iteration costs two n x p products (X d and X^T) and one
n x n product, however many backtracks it takes.  The direction d is sparse
(it is nonzero only where u or its prox step is), so X d is the
support-restricted product of :meth:`~dantzig_adm.core.DesignOperator.matvec`.
A solve costs three more n x p products: X r0 and X^T q0 for the start-up
gradient, and X^T E for the residual of the returned iterate.

When the returned u is the final iterate, the result also carries r(u) and
the gradient mu G r(u), G = X^T X.  The outer loop reads G u = r + c, its
multiplier step and the multiplier's Gram product off these, with no product
of its own.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .core import DesignOperator, Instance, _as_vector, apply_gram, soft_thresh

STATIONARY_RTOL = 1e-15  # |Delta| below this (times objective scale) means a fixed point


class LineSearchError(RuntimeError):
    """No steplength in {1, eta, eta^2, ...} passed the acceptance test."""


@dataclass(frozen=True, eq=False)
class SubproblemObjective:
    """Smooth part of one inner problem, with (z, lambda, mu) frozen.

    Stores the constant c = X^T y + z - lambda/mu so that
    f(u) = (mu/2) ||gram(u) - c||^2.  ``gram_u0`` optionally carries
    X^T X u0 for the warm start u0 later handed to :func:`solve_subproblem`,
    so the start-up residual costs no Gram product.  ``design`` makes the
    inner solver's products; pass one to share its kernel across the inner
    problems of a solve, else a new one is made for X.
    """

    inst: Instance
    z_fixed: np.ndarray
    lambda_fixed: np.ndarray
    mu: float
    gram_u0: np.ndarray | None = field(default=None, repr=False)
    design: DesignOperator | None = field(default=None, repr=False)
    c: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        p = self.inst.p
        z = np.asarray(self.z_fixed, dtype=np.float64)
        lam = np.asarray(self.lambda_fixed, dtype=np.float64)
        if z.shape != (p,) or lam.shape != (p,):
            raise ValueError(
                f"z and lambda must have length {p}, got {z.shape} and {lam.shape}"
            )
        mu = float(self.mu)
        if not mu > 0:
            raise ValueError(f"mu must be positive, got {mu}")
        object.__setattr__(self, "z_fixed", z)
        object.__setattr__(self, "lambda_fixed", lam)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "c", self.inst.xty + z - lam / mu)
        if self.gram_u0 is not None:
            object.__setattr__(self, "gram_u0", _as_vector(self.gram_u0, p, "gram_u0"))
        if self.design is None:
            object.__setattr__(self, "design", DesignOperator(self.inst.X))

    def residual(self, u: np.ndarray) -> np.ndarray:
        """gram(u) - c; one apply_gram call."""
        return apply_gram(self.inst, u) - self.c


@dataclass
class SubsolverConfig:
    """Inner-solver parameters.

    ``sigma_ls`` is the Armijo constant (named to avoid clashing with the
    noise level sigma), ``alpha_lo`` the lower safeguard on the spectral step,
    ``memory`` the look-back length of the nonmonotone window.  ``tol_sub``
    may be left None when the outer loop derives it from its own tolerance.
    """

    eta: float = 0.5
    sigma_ls: float = 1e-4
    alpha_lo: float = 1e-8
    memory: int = 1
    tol_sub: float | None = None
    max_inner_iter: int = 20000
    max_backtracks: int = 60

    def __post_init__(self):
        if not 0 < self.eta < 1:
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")
        if not 0 < self.sigma_ls < 1:
            raise ValueError(f"sigma_ls must lie in (0, 1), got {self.sigma_ls}")
        if not 0 < self.alpha_lo < 1:
            raise ValueError(f"alpha_lo must lie in (0, 1), got {self.alpha_lo}")
        if self.memory < 0:
            raise ValueError(f"memory must be nonnegative, got {self.memory}")
        if self.tol_sub is not None and not self.tol_sub > 0:
            raise ValueError(f"tol_sub must be positive, got {self.tol_sub}")
        if self.max_inner_iter < 1 or self.max_backtracks < 1:
            raise ValueError("iteration limits must be positive")


@dataclass(frozen=True, eq=False)
class WarmStart:
    """One inner problem seen from its warm start u0, in n-space.

    Holds r0 = r(u0) and q0 = X r0.  An iterate u is then known by its shift
    E = X (u - u0) and by K E, K = X X^T (see the module docstring for the
    identities).
    """

    obj: SubproblemObjective
    r0: np.ndarray
    q0: np.ndarray

    @classmethod
    def at(cls, obj: SubproblemObjective, u0: np.ndarray) -> "WarmStart":
        """Costs X r0, plus one Gram product for r0 unless ``obj.gram_u0`` is set."""
        r0 = obj.residual(u0) if obj.gram_u0 is None else obj.gram_u0 - obj.c
        return cls(obj, r0, obj.design.matvec(r0))

    def gradient(self, kshift: np.ndarray) -> np.ndarray:
        """grad f(u) = mu X^T (q0 + K E); one X^T product."""
        return self.obj.mu * self.obj.design.rmatvec(self.q0 + kshift)

    def residual(self, shift: np.ndarray) -> np.ndarray:
        """r(u) = r0 + X^T E; one X^T product."""
        return self.r0 + self.obj.design.rmatvec(shift)


@dataclass
class InnerState:
    """Current iterate with its shift and value, spectral step, and the nonmonotone window."""

    u: np.ndarray
    shift: np.ndarray  # E = X (u - u0)
    kshift: np.ndarray  # K E
    smooth: float  # f(u)
    bar_alpha: float = 1.0
    window: deque = None  # last memory+1 penalized objective values
    iteration: int = 0


@dataclass(frozen=True, eq=False)
class TrialPoint:
    """Accepted line-search point with the evaluations already paid for."""

    u: np.ndarray
    shift: np.ndarray
    kshift: np.ndarray
    smooth: float
    penalized: float


@dataclass(frozen=True, eq=False)
class InnerIterationRecord:
    """Diagnostics handed to an optional per-iteration callback."""

    iteration: int
    u: np.ndarray
    delta: float
    alpha: float
    bar_alpha: float
    bar_alpha_next: float
    penalized: float
    window_max: float


@dataclass(frozen=True, eq=False)
class SubsolverResult:
    """Returned iterate and how the run ended.

    ``residual`` is r(u) = X^T X u - c, formed once as r0 + X^T E, and
    ``gradient`` is mu X^T X r(u) as held by the solver, when u is its final
    iterate; both are None when the best earlier iterate is returned instead.
    """

    u: np.ndarray
    iterations: int
    status: str  # converged | stationary | max_iter | line_search_failure
    residual: np.ndarray | None = field(default=None, repr=False)
    gradient: np.ndarray | None = field(default=None, repr=False)

    @property
    def succeeded(self) -> bool:
        return self.status in ("converged", "stationary")


def search_direction(
    u: np.ndarray, bar_alpha: float, grad: np.ndarray
) -> tuple[np.ndarray, float]:
    """Prox-gradient direction d and its predicted decrease Delta.

    With ``grad`` = grad f(u), d = SoftThresh(u - bar_alpha * grad, bar_alpha) - u
    and Delta = grad . d + ||u + d||_1 - ||u||_1; Delta <= 0 always, with
    equality only at a minimizer of the penalized objective.
    """
    if not 0 < bar_alpha <= 1:
        raise ValueError(f"bar_alpha must lie in (0, 1], got {bar_alpha}")
    target = soft_thresh(u - bar_alpha * grad, bar_alpha)
    d = target - u
    delta = float(grad @ d) + float(np.abs(target).sum()) - float(np.abs(u).sum())
    return d, delta


def line_search(
    start: WarmStart,
    state: InnerState,
    d: np.ndarray,
    delta: float,
    config: SubsolverConfig,
    e: np.ndarray,
    ke: np.ndarray,
) -> tuple[float, TrialPoint]:
    """Largest alpha in {1, eta, eta^2, ...} passing the nonmonotone Armijo test.

    Acceptance compares the trial objective against the maximum penalized value
    over the memory window plus sigma_ls * alpha * delta.  ``e`` is X d and
    ``ke`` is K e.  The smooth value of a trial is the quadratic
    f(u) + alpha grad f(u).d + (alpha^2/2) mu e.K e, with the slope
    grad f(u).d = mu (q0 + K E).e, so a trial makes no product with X.
    Raises LineSearchError after max_backtracks rejected powers.
    """
    if not delta < 0:
        raise ValueError(f"line search needs a strict descent prediction, got Delta={delta}")
    mu = start.obj.mu
    slope = mu * float((start.q0 + state.kshift) @ e)
    curvature = mu * float(e @ ke)
    reference = max(state.window)
    alpha = 1.0
    for _ in range(config.max_backtracks):
        u_trial = state.u + alpha * d
        f_trial = state.smooth + alpha * (slope + 0.5 * alpha * curvature)
        penalized = f_trial + float(np.abs(u_trial).sum())
        if penalized <= reference + config.sigma_ls * alpha * delta:
            trial = TrialPoint(
                u_trial, state.shift + alpha * e, state.kshift + alpha * ke, f_trial, penalized
            )
            return alpha, trial
        alpha *= config.eta
    raise LineSearchError(
        f"no acceptable steplength within {config.max_backtracks} backtracks"
    )


def bb_step(s: np.ndarray, g: np.ndarray, config: SubsolverConfig) -> float:
    """Safeguarded spectral steplength min{max{||s||^2 / (s.g), alpha_lo}, 1}.

    Nonpositive curvature s.g <= 0 is treated as an infinite ratio, which the
    upper clamp maps to 1.
    """
    s = np.asarray(s, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if s.shape != g.shape:
        raise ValueError(f"s and g must have equal shapes, got {s.shape} vs {g.shape}")
    ss = float(s @ s)
    if ss == 0.0:
        raise ValueError("zero step: the caller should have terminated")
    curvature = float(s @ g)
    if curvature <= 0.0:
        return 1.0
    return min(max(ss / curvature, config.alpha_lo), 1.0)


def inner_termination_metric(u: np.ndarray, grad: np.ndarray, penalized: float) -> float:
    """||SoftThresh(u - grad, 1) - u||_2 / max(penalized, 1).

    ``grad`` is grad f(u) and ``penalized`` is f(u) + ||u||_1.
    """
    step = soft_thresh(u - grad, 1.0) - u
    return float(np.linalg.norm(step)) / max(penalized, 1.0)


def solve_subproblem(
    obj: SubproblemObjective,
    u0: np.ndarray,
    config: SubsolverConfig,
    callback=None,
) -> SubsolverResult:
    """Run the nonmonotone spectral gradient method from warm start u0.

    Stops when the termination metric drops below config.tol_sub, when the
    predicted decrease vanishes (fixed point), or at the iteration cap.  On
    line-search failure or cap exhaustion the best iterate seen (by penalized
    objective) is returned with a flagged status; the caller decides whether
    to accept it.  Only a final iterate comes with its residual and gradient.

    Start-up costs X r0 and X^T q0 (the gradient), plus one Gram product for
    r0 unless ``obj.gram_u0`` holds X^T X u0; each iteration then costs X d,
    K (X d) and X^T for the new gradient; a final iterate's residual costs
    one more X^T product.
    """
    if config.tol_sub is None:
        raise ValueError("config.tol_sub must be set for a standalone subproblem solve")
    u = np.array(u0, dtype=np.float64)
    start = WarmStart.at(obj, u)
    origin = np.zeros(obj.inst.n)
    g = start.gradient(origin)
    smooth = 0.5 * obj.mu * float(start.r0 @ start.r0)
    penalized = smooth + float(np.abs(u).sum())

    state = InnerState(
        u=u, shift=origin, kshift=origin, smooth=smooth, bar_alpha=1.0,
        window=deque([penalized], maxlen=config.memory + 1),
    )
    best_u, best_penalized = u, penalized
    status = "max_iter"

    while state.iteration < config.max_inner_iter:
        if inner_termination_metric(state.u, g, penalized) <= config.tol_sub:
            return _final(start, state, g, "converged")
        d, delta = search_direction(state.u, state.bar_alpha, g)
        if delta > -STATIONARY_RTOL * max(1.0, penalized):
            return _final(start, state, g, "stationary")
        window_max = max(state.window)
        e = obj.design.matvec(d)
        try:
            alpha, trial = line_search(
                start, state, d, delta, config, e, obj.design.kernel_matvec(e)
            )
        except LineSearchError:
            status = "line_search_failure"
            break
        g_new = start.gradient(trial.kshift)
        bar_alpha_next = bb_step(trial.u - state.u, g_new - g, config)
        state.u, state.shift, state.kshift = trial.u, trial.shift, trial.kshift
        state.smooth = trial.smooth
        state.iteration += 1
        state.window.append(trial.penalized)
        g = g_new
        penalized = trial.penalized
        if callback is not None:
            callback(
                InnerIterationRecord(
                    iteration=state.iteration,
                    u=trial.u.copy(),
                    delta=delta,
                    alpha=alpha,
                    bar_alpha=state.bar_alpha,
                    bar_alpha_next=bar_alpha_next,
                    penalized=trial.penalized,
                    window_max=window_max,
                )
            )
        state.bar_alpha = bar_alpha_next
        if trial.penalized < best_penalized:
            best_u, best_penalized = trial.u, trial.penalized

    if status == "max_iter" and inner_termination_metric(state.u, g, penalized) <= config.tol_sub:
        return _final(start, state, g, "converged")
    return SubsolverResult(best_u, state.iteration, status)


def _final(start: WarmStart, state: InnerState, g: np.ndarray, status: str) -> SubsolverResult:
    """The final iterate with its residual r0 + X^T E and its gradient g."""
    return SubsolverResult(state.u, state.iteration, status, start.residual(state.shift), g)
