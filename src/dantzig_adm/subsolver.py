"""Nonmonotone spectral gradient method for the l1-penalized inner problem.

The outer loop freezes (z, lambda, mu) and asks for an approximate minimizer of

    F(u) = f(u) + ||u||_1,    f(u) = (mu/2) ||X^T X u - X^T y - z + lambda/mu||_2^2.

Search directions come from a soft-threshold (prox-gradient) step at the
current spectral steplength, acceptance uses an Armijo test against the worst
objective over a short memory window, and the steplength is a safeguarded
Barzilai-Borwein update.

The iteration runs in the space of X's smaller side, which the design
operator picks (:class:`~dantzig_adm.core.DesignOperator`); the loop is the
same in both.  Let r(u) = X^T X u - c be the residual, r0 = r(u0) at the
warm start u0, and G = X^T X.

In n-space (n <= p), with the n x n kernel K = X X^T, q0 = X r0 and the
shift E = X (u - u0) of the iterate,

    r(u) = r0 + X^T E,    grad f(u) = mu X^T X r(u) = mu X^T (q0 + K E),

and an iteration forms e = X d for the search direction d and then K e.
In the Gram space (p < n) the kernel is G itself: q0 = r0, E = K E =
G (u - u0), e = K e = G d, r(u) = r0 + E and grad f(u) = mu G (q0 + K E).
Either way the smooth part f is quadratic, so along d

    f(u + a d) = f(u) + a mu (q0 + K E).e + (a^2/2) mu e.K e,

and each line-search trial costs O(n + p) operations.  f is carried from
iterate to iterate this way, with an error relative to f itself.  Formed
afresh as (mu/2) ||r(u)||^2 it would lose, to cancellation, every
digit by which f has fallen below f(u0), and a tightly converged solve
cannot afford that.

So an iteration costs its direction's products and, after the line
search, one more product for the gradient at the accepted point, however
many backtracks it takes: X d, K e and X^T in n-space, G d and G (q0 + K E)
in the Gram space.  In n-space the direction d is sparse (it is nonzero
only where u or its prox step is), so X d is the support-restricted
product of :meth:`~dantzig_adm.core.DesignOperator.matvec`, and so is the
one product X r0 of every solve (r0 is zero wherever the outer loop's z
clamp is inactive); the start-up gradient X^T q0 is one more product.  In
the Gram space q0 costs nothing and the start-up gradient is one product
with G.  The outer loop runs each inner solve on the block X[:, W] of its
round's columns (see :func:`~dantzig_adm.adm.solve`), so all of these are
products with that block, or with its |W| x |W| Gram matrix when |W| < n.

When the returned u is the final iterate, the result also carries
r(u) = r0 + X^T E (one more X^T product in n-space, none in the Gram
space) and the gradient mu G r(u), which the iteration already holds.  The
outer loop reads G u = r + c, its multiplier step and the multiplier's Gram
product off these, with no product of its own.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .core import DesignOperator, Instance, _as_vector, apply_gram, soft_thresh

STATIONARY_RTOL = 1e-15  # |Delta| below this (times objective scale) means a fixed point
# The paper's parameters of the method (Lu & Zhang): the backtracking factor,
# the Armijo constant (named to avoid clashing with the noise level sigma),
# the lower safeguard on the spectral step, and the look-back length of the
# nonmonotone window.
ETA = 0.5
SIGMA_LS = 1e-4
ALPHA_LO = 1e-8
MEMORY = 1
# Safety caps: iterations of one inner solve, and rejected powers of ETA in
# one line search.
MAX_INNER_ITER = 20000
MAX_BACKTRACKS = 60


class LineSearchError(RuntimeError):
    """No steplength in {1, ETA, ETA^2, ...} passed the acceptance test."""


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


@dataclass(frozen=True, eq=False)
class WarmStart:
    """One inner problem seen from its warm start u0, in its design operator's space.

    Holds r0 = r(u0) and q0 (X r0 in n-space, r0 in the Gram space).  An
    iterate u is then known by its shift E and by K E (see the module
    docstring for both spaces).  The products are the operator's.
    """

    obj: SubproblemObjective
    r0: np.ndarray
    q0: np.ndarray

    @classmethod
    def at(cls, obj: SubproblemObjective, u0: np.ndarray) -> "WarmStart":
        """Costs X r0 in n-space and nothing in the Gram space, plus one Gram product.

        The Gram product forms r0 and is saved when ``obj.gram_u0`` is set.
        From ``gram_u0``, r0 = (gram_u0 - X^T y + lambda/mu) - z: the z
        update's w less z, so r0 is exactly 0 wherever that update's clamp
        left z = w.
        """
        if obj.gram_u0 is None:
            r0 = obj.residual(u0)
        else:
            r0 = (obj.gram_u0 - obj.inst.xty + obj.lambda_fixed / obj.mu) - obj.z_fixed
        return cls(obj, r0, obj.design.start_product(r0))

    def gradient(self, kshift: np.ndarray) -> np.ndarray:
        """grad f(u) = mu X^T (q0 + K E), or mu G (q0 + K E); one product."""
        return self.obj.mu * self.obj.design.gradient_product(self.q0 + kshift)

    def residual(self, shift: np.ndarray) -> np.ndarray:
        """r(u) = r0 + X^T E (one product), or r0 + E in the Gram space."""
        return self.r0 + self.obj.design.residual_product(shift)


@dataclass
class InnerState:
    """Current iterate with its shift, value and gradient, spectral step and nonmonotone window."""

    u: np.ndarray
    shift: np.ndarray  # E: X (u - u0), or G (u - u0) in the Gram space
    kshift: np.ndarray  # K E
    smooth: float  # f(u)
    bar_alpha: float = 1.0
    window: deque = None  # last MEMORY+1 penalized objective values
    iteration: int = 0
    grad: np.ndarray | None = None  # grad f(u)


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

    ``residual`` is r(u) = X^T X u - c, formed once as r0 + X^T E (r0 + E
    in the Gram space), and ``gradient`` is mu X^T X r(u), when u is its
    final iterate; both are None when the best earlier iterate is returned
    instead.
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
    e: np.ndarray,
    ke: np.ndarray,
) -> tuple[float, TrialPoint]:
    """Largest alpha in {1, ETA, ETA^2, ...} passing the nonmonotone Armijo test.

    Acceptance compares the trial objective against the maximum penalized value
    over the memory window plus SIGMA_LS * alpha * delta.  ``e`` and ``ke``
    are the direction's products (X d and K e, or G d twice in the Gram
    space).  The smooth value of a trial is the quadratic
    f(u) + alpha grad f(u).d + (alpha^2/2) mu e.K e, with the slope
    grad f(u).d = mu (q0 + K E).e, so a trial makes no product.
    Raises LineSearchError after MAX_BACKTRACKS rejected powers.
    """
    if not delta < 0:
        raise ValueError(f"line search needs a strict descent prediction, got Delta={delta}")
    mu = start.obj.mu
    slope = mu * float((start.q0 + state.kshift) @ e)
    curvature = mu * float(e @ ke)
    reference = max(state.window)
    alpha = 1.0
    for _ in range(MAX_BACKTRACKS):
        u_trial = state.u + alpha * d
        f_trial = state.smooth + alpha * (slope + 0.5 * alpha * curvature)
        penalized = f_trial + float(np.abs(u_trial).sum())
        if penalized <= reference + SIGMA_LS * alpha * delta:
            trial = TrialPoint(
                u_trial, state.shift + alpha * e, state.kshift + alpha * ke, f_trial, penalized
            )
            return alpha, trial
        alpha *= ETA
    raise LineSearchError(f"no acceptable steplength within {MAX_BACKTRACKS} backtracks")


def bb_step(s: np.ndarray, g: np.ndarray) -> float:
    """Safeguarded spectral steplength min{max{||s||^2 / (s.g), ALPHA_LO}, 1}.

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
    return min(max(ss / curvature, ALPHA_LO), 1.0)


def inner_termination_metric(u: np.ndarray, grad: np.ndarray, penalized: float) -> float:
    """||SoftThresh(u - grad, 1) - u||_2 / max(penalized, 1).

    ``grad`` is grad f(u) and ``penalized`` is f(u) + ||u||_1.
    """
    step = soft_thresh(u - grad, 1.0) - u
    return float(np.linalg.norm(step)) / max(penalized, 1.0)


def solve_subproblem(
    obj: SubproblemObjective,
    u0: np.ndarray,
    tol_sub: float,
    callback=None,
) -> SubsolverResult:
    """Run the nonmonotone spectral gradient method from warm start u0.

    Stops when the termination metric drops below ``tol_sub``, when the
    predicted decrease vanishes or the accepted step leaves u unchanged in
    floating point (a fixed point either way, status stationary), or at
    MAX_INNER_ITER, where only the first is tested.  On line-search failure or cap exhaustion the
    best iterate seen (by penalized objective) is returned with a flagged
    status; the caller decides whether to accept it.  Only a final iterate
    comes with its residual and gradient.

    Start-up costs q0 and the gradient, plus one Gram product for r0 unless
    ``obj.gram_u0`` holds X^T X u0.  Each iteration then costs the
    direction's products and one for the new gradient, and a final iterate
    its residual: X r0 and X^T q0, X d, K (X d) and X^T, and X^T E in
    n-space; G r0, G d and G (q0 + K E), and nothing in the Gram space.
    """
    if not tol_sub > 0:
        raise ValueError(f"tol_sub must be positive, got {tol_sub}")
    u = np.array(u0, dtype=np.float64)
    start = WarmStart.at(obj, u)
    origin = np.zeros_like(start.q0)
    smooth = 0.5 * obj.mu * float(start.r0 @ start.r0)
    penalized = smooth + float(np.abs(u).sum())

    state = InnerState(
        u=u, shift=origin, kshift=origin, smooth=smooth, bar_alpha=1.0,
        window=deque([penalized], maxlen=MEMORY + 1), grad=start.gradient(origin),
    )
    best_u, best_penalized = u, penalized
    status = "max_iter"

    while True:
        if inner_termination_metric(state.u, state.grad, penalized) <= tol_sub:
            return _finish(start, state, "converged")
        if state.iteration == MAX_INNER_ITER:
            break
        d, delta = search_direction(state.u, state.bar_alpha, state.grad)
        if delta > -STATIONARY_RTOL * max(1.0, penalized):
            return _finish(start, state, "stationary")
        window_max = max(state.window)
        e, ke = obj.design.direction_products(d)
        try:
            alpha, trial = line_search(start, state, d, delta, e, ke)
        except LineSearchError:
            status = "line_search_failure"
            break
        if np.array_equal(trial.u, state.u):  # the step is lost to rounding: u is a fixed point
            return _finish(start, state, "stationary")
        g_new = start.gradient(trial.kshift)
        bar_alpha_next = bb_step(trial.u - state.u, g_new - state.grad)
        state.u, state.shift, state.kshift = trial.u, trial.shift, trial.kshift
        state.smooth, state.grad = trial.smooth, g_new
        state.iteration += 1
        state.window.append(trial.penalized)
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

    return SubsolverResult(best_u, state.iteration, status)


def _finish(start: WarmStart, state: InnerState, status: str) -> SubsolverResult:
    """The final iterate with its residual r0 + X^T E (or r0 + E) and gradient."""
    return SubsolverResult(
        state.u, state.iteration, status, start.residual(state.shift), state.grad
    )
