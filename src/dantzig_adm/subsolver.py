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
solve cannot afford that.

The iterations run on a working set W of coordinates; off W the iterate
stays zero, which is right while |g_j| <= 1 there, because a zero
coordinate's prox step stays zero.  When W holds at most a quarter of the p
coordinates, the rows X^T[W] are copied once into the design operator's
buffer (see :meth:`~dantzig_adm.core.DesignOperator.restrict`), and each
iteration makes its gradient mu X^T[W] (q0 + K E) and X d from them.  When
W holds more, the same loop runs on X itself, with no copy and no check:
this is full mode.  W is chosen in one of two ways.

A certified start.  The outer loop hands each inner solve the previous one's
result as a reference: its full gradient g_ref = mu X^T v_ref, with
v_ref = q0 + K E at its final iterate.  Since grad f(u) = mu X^T v(u) with
v(u) = q0 + K E for this solve too, and mu is that of the reference,

    |g_j(u) - g_ref_j| <= mu d_j ||v(u) - v_ref||_2,    d_j = ||x_j||,

at the cost of one norm of length n.  After X r0 the solve takes
W = supp(u0) + {j : |g_ref_j| + mu d_j rho0 >= 1 - m}, rho0 = ||q0 - v_ref||,
m = WORKING_SET_MARGIN, and makes its start-up gradient and every later
product with the copy.  At u0 and after every accepted step it tests the
certificate max_{j off W} |g_ref_j| + mu max_{j off W} d_j rho_t <= 1,
rho_t = ||q0 + K E - v_ref||.  While it holds every gradient off W lies in
[-1, 1], so the iterates are those of the full method.  When it fails after
a step, one dense X^T forms the full gradient there, and the solve goes on
in full mode from that iterate, so its iterates stay those of the full
method.  Unless it fails, a certified solve makes no dense X^T until it
stops.

Otherwise (no reference: the first inner solve, and the one after a return
of a best earlier iterate; or a certified W past a quarter of p, or a
certificate that fails at u0), the first step runs on X, and W is read off
the full gradient g1 at the first accepted point u1:
W = supp(u1) + {j : |g1_j| >= 1 - m}.  W is not read off the start-up
gradient g0, because the first step moves the iterate furthest.  Chosen from
g0, W missed coordinates whose gradient crossed 1 in that step and was back
inside by the check, and at (720, 2560, 80) 2 of 30 solves took one outer
iteration more or fewer.  Such a W is verified, not proven: nothing tests
the gradient off W until the solve stops, so a gradient that crosses 1 and
falls back mid-solve leaves the iterates those of the working set, not of
the full method.  Up to half of p, the early solves still copied; their
gradients off W crossed 1 most often, and one of 88 solves at sigma = 0.01
took an outer iteration more.

When a solve on a working set stops (converged or stationary), one pass over
X^T (:meth:`~dantzig_adm.core.DesignOperator.rmatvec_pair`) makes both the
full gradient mu X^T (q0 + K E) and the X^T E of the residual
r = r0 + X^T E.  Every j off W with |g_j| > 1 breaks the optimality of
u_j = 0; those j join W and the iterations go on.  Otherwise the solve
returns that gradient and residual.  After a certified start no j can enter
there.

An iteration costs one n x n product and two products with X or X^T[W]:
X d, and X^T for the gradient at the accepted point, however many
backtracks it takes.  In full mode, and in the first iteration of an
uncertified solve, they use X itself.  There the direction d is sparse (it
is nonzero only where u or its prox step is), so X d is the
support-restricted product of :meth:`~dantzig_adm.core.DesignOperator.matvec`.
Every solve costs one product X r0.  r0 is zero wherever the outer loop's z
clamp is inactive (about 90% of the coordinates at (720, 2560, 80)), so it
is support-restricted too.  The start-up gradient X^T q0 is one more n x p
product, or one product with the copy after a certified start.
At the end a solve in full mode makes X^T E, and a solve on a working set one
fused pass per check.  A failed certificate costs one dense X^T, and every
iteration after it those of full mode.

When the returned u is the final iterate, the result also carries r(u),
the full gradient mu G r(u), G = X^T X, and v = q0 + K E = X r(u).  The
outer loop reads G u = r + c, its multiplier step and the multiplier's Gram
product off these, with no product of its own, and hands the result to the
next inner solve as its reference.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .core import DesignOperator, Instance, _as_vector, apply_gram, soft_thresh

STATIONARY_RTOL = 1e-15  # |Delta| below this (times objective scale) means a fixed point
# W takes each zero coordinate j whose |g_j| (plus the certificate's slack)
# reaches 1 - WORKING_SET_MARGIN (see _working_set and the module docstring).
WORKING_SET_MARGIN = 0.2
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
    problems of a solve, else a new one is made for X.  ``reference``
    optionally carries the final result of an earlier inner solve on the same
    X with the same mu, whose gradient and v may certify a working set from
    the start (see the module docstring).
    """

    inst: Instance
    z_fixed: np.ndarray
    lambda_fixed: np.ndarray
    mu: float
    gram_u0: np.ndarray | None = field(default=None, repr=False)
    design: DesignOperator | None = field(default=None, repr=False)
    reference: SubsolverResult | None = field(default=None, repr=False)
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
        if self.reference is not None and self.reference.v is None:
            raise ValueError("a reference must be a final iterate, with its gradient and v")

    def residual(self, u: np.ndarray) -> np.ndarray:
        """gram(u) - c; one apply_gram call."""
        return apply_gram(self.inst, u) - self.c


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
        """Costs X r0, plus one Gram product for r0 unless ``obj.gram_u0`` is set.

        From ``gram_u0``, r0 = (gram_u0 - X^T y + lambda/mu) - z: the z update's
        w less z, so r0 is exactly 0 wherever that update's clamp left z = w.
        """
        if obj.gram_u0 is None:
            r0 = obj.residual(u0)
        else:
            r0 = (obj.gram_u0 - obj.inst.xty + obj.lambda_fixed / obj.mu) - obj.z_fixed
        return cls(obj, r0, obj.design.matvec(r0))

    def gradient(self, kshift: np.ndarray, design: DesignOperator | None = None) -> np.ndarray:
        """grad f(u) = mu X^T (q0 + K E); one X^T product.

        With ``design`` the operator of X[:, W], its entries on W alone.
        """
        design = self.obj.design if design is None else design
        return self.obj.mu * design.rmatvec(self.q0 + kshift)

    def residual(self, shift: np.ndarray) -> np.ndarray:
        """r(u) = r0 + X^T E; one X^T product."""
        return self.r0 + self.obj.design.rmatvec(shift)


class WorkingSet:
    """The coordinates W an inner solve iterates on, and the operator of their columns.

    ``columns`` is the sorted W, or None in full mode: until W is chosen,
    whenever W holds more than a quarter of the p coordinates, and after a
    certificate fails.  ``design`` is then the solve's own operator, and no
    copy is made.  ``checks`` counts the passes over X that checked the
    gradient off W, and ``refreshes`` the certificate failures (0 or 1; each
    moves the solve to full mode).  ``certified`` tells whether W came from a
    reference; the certificate is kept as the offset q0 - v_ref and the two
    maxima off W, of |g_ref_j| and of mu d_j (see the module docstring).
    """

    def __init__(self, design: DesignOperator):
        self.full = self.design = design
        self.columns: np.ndarray | None = None
        self.checks = self.refreshes = 0
        self.certified = False
        self._offset: np.ndarray | None = None  # q0 - v_ref
        self._bound = (0.0, 0.0)  # max off W of |g_ref_j| and of mu d_j

    @property
    def size(self) -> int:
        return self.full.X.shape[1] if self.columns is None else self.columns.size

    def take(self, v: np.ndarray) -> np.ndarray:
        """The entries of a length-p vector on W."""
        return v if self.columns is None else v[self.columns]

    def expand(self, v: np.ndarray) -> np.ndarray:
        """A new length-p vector holding v on W and zeros elsewhere."""
        return _expand(v, self.columns, self.full.X.shape[1])

    def move(self, state: "InnerState", columns: np.ndarray | None, g: np.ndarray) -> None:
        """Iterate on ``columns`` from now on; ``g`` is the full gradient at the iterate.

        None, or too many columns to copy, moves to full mode.
        """
        u = self.expand(state.u)
        design = None if columns is None else self.full.restrict(columns)
        if design is None:
            self.columns, self.design = None, self.full
        else:
            self.columns, self.design = columns, design
        state.u, state.grad = self.take(u), self.take(g)

    def outside(self, g: np.ndarray) -> np.ndarray:
        """The j off W with |g_j| > 1, g the full gradient: there u_j = 0 is not optimal."""
        violated = np.abs(g) > 1.0
        violated[self.columns] = False
        return np.flatnonzero(violated)

    def certify(self, start: WarmStart, u0: np.ndarray, reference: SubsolverResult) -> None:
        """Start on the W that ``reference`` certifies at u0, if it can be copied.

        W = supp(u0) + {j : |g_ref_j| + mu d_j rho0 >= 1 - m}.  Full mode
        stays in place when W holds more than a quarter of the coordinates or
        the certificate fails at u0.
        """
        scale = start.obj.mu * start.obj.inst.d
        offset = start.q0 - reference.v
        rho = float(np.linalg.norm(offset))
        columns = _working_set(u0, reference.gradient, scale * rho)
        bound = _off_maxima(reference.gradient, scale, columns)
        if bound[0] + bound[1] * rho > 1.0:
            return
        design = self.full.restrict(columns)
        if design is not None:
            self.columns, self.design, self.certified = columns, design, True
            self._offset, self._bound = offset, bound

    def holds(self, kshift: np.ndarray) -> bool:
        """Whether the certificate covers the iterate whose K E is ``kshift``.

        True in full mode and on an uncertified W, where no certificate is kept.
        """
        if self._offset is None or self.columns is None:
            return True
        off_gradient, off_scale = self._bound
        return off_gradient + off_scale * float(np.linalg.norm(self._offset + kshift)) <= 1.0


def _working_set(u: np.ndarray, g: np.ndarray, slack: np.ndarray | float = 0.0) -> np.ndarray:
    """W = supp(u) + {j : |g_j| + slack_j >= 1 - WORKING_SET_MARGIN}, sorted."""
    return np.flatnonzero((np.abs(g) + slack >= 1.0 - WORKING_SET_MARGIN) | (u != 0))


def _off_maxima(g: np.ndarray, scale: np.ndarray, columns: np.ndarray) -> tuple[float, float]:
    """The maxima of |g_j| and of scale_j over the j not in ``columns`` (0 when none)."""
    off = np.ones(g.size, dtype=bool)
    off[columns] = False
    if not off.any():
        return 0.0, 0.0
    return float(np.abs(g[off]).max()), float(scale[off].max())


def _expand(v: np.ndarray, columns: np.ndarray | None, p: int) -> np.ndarray:
    """A new length-p vector holding v on ``columns`` (all p when None) and zeros elsewhere."""
    if columns is None:
        return v.copy()
    out = np.zeros(p)
    out[columns] = v
    return out


@dataclass
class InnerState:
    """Current iterate with its shift, value and gradient, spectral step and nonmonotone window.

    On a working set ``u`` and ``grad`` hold the entries on W only.
    """

    u: np.ndarray
    shift: np.ndarray  # E = X (u - u0)
    kshift: np.ndarray  # K E
    smooth: float  # f(u)
    bar_alpha: float = 1.0
    window: deque = None  # last MEMORY+1 penalized objective values
    iteration: int = 0
    grad: np.ndarray | None = None  # grad f(u), on W


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
    ``gradient`` is the full mu X^T X r(u), when u is its final iterate; both
    are None when the best earlier iterate is returned instead.
    ``v`` is the n-vector q0 + K E = X r(u) at that iterate, which lets the
    result serve as the next inner solve's reference.
    ``working_set`` is the size of W at return (p in full mode), and
    ``kkt_checks`` the number of passes over X that checked the gradient off
    W; each check but a final one let coordinates enter W.  ``certified``
    tells whether the solve started on a working set certified by its
    reference, and ``refreshes`` counts that certificate's failures: 0, or
    1 when it failed, cost one dense X^T and moved the solve to full mode.
    """

    u: np.ndarray
    iterations: int
    status: str  # converged | stationary | max_iter | line_search_failure
    residual: np.ndarray | None = field(default=None, repr=False)
    gradient: np.ndarray | None = field(default=None, repr=False)
    v: np.ndarray | None = field(default=None, repr=False)
    working_set: int = 0
    kkt_checks: int = 0
    certified: bool = False
    refreshes: int = 0

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
    over the memory window plus SIGMA_LS * alpha * delta.  ``e`` is X d and
    ``ke`` is K e.  The smooth value of a trial is the quadratic
    f(u) + alpha grad f(u).d + (alpha^2/2) mu e.K e, with the slope
    grad f(u).d = mu (q0 + K E).e, so a trial makes no product with X.
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
    predicted decrease vanishes (fixed point), or at MAX_INNER_ITER, where
    only the first is tested.  On a working set the first two are tested on
    W, and then checked off W (see the module docstring).  On line-search
    failure or cap exhaustion the best iterate seen (by penalized objective)
    is returned with a flagged status; the caller decides whether to accept
    it.  Only a final iterate comes with its residual, gradient and v.

    Start-up costs X r0 and X^T q0 (the gradient, with X^T[W] after a
    certified start), plus one Gram product for r0 unless ``obj.gram_u0``
    holds X^T X u0.  Each iteration then costs X d, K (X d) and X^T for the
    new gradient, made with X[:, W] on a working set.  Each check costs one
    fused pass over X that also gives the residual; in full mode the
    residual costs one X^T product.  A failed certificate costs one dense
    X^T for the gradient at the new iterate, and the solve goes on in full
    mode.
    """
    if not tol_sub > 0:
        raise ValueError(f"tol_sub must be positive, got {tol_sub}")
    u = np.array(u0, dtype=np.float64)
    start = WarmStart.at(obj, u)
    origin = np.zeros(obj.inst.n)
    ws = WorkingSet(obj.design)
    if obj.reference is not None:
        ws.certify(start, u, obj.reference)
    g = start.gradient(origin, ws.design)
    smooth = 0.5 * obj.mu * float(start.r0 @ start.r0)
    penalized = smooth + float(np.abs(u).sum())

    state = InnerState(
        u=ws.take(u), shift=origin, kshift=origin, smooth=smooth, bar_alpha=1.0,
        window=deque([penalized], maxlen=MEMORY + 1), grad=g,
    )
    best_u, best_columns, best_penalized = state.u, ws.columns, penalized
    status = "max_iter"

    while True:
        stop = None
        if inner_termination_metric(state.u, state.grad, penalized) <= tol_sub:
            stop = "converged"
        elif state.iteration == MAX_INNER_ITER:
            break
        else:
            d, delta = search_direction(state.u, state.bar_alpha, state.grad)
            if delta > -STATIONARY_RTOL * max(1.0, penalized):
                stop = "stationary"
        if stop is not None:
            result = _finish(start, state, ws, stop)
            if result is not None:
                return result
            continue
        if state.iteration == 1 and not ws.certified:  # W from the full gradient g1
            ws.move(state, _working_set(state.u, state.grad), state.grad)
            d = ws.take(d)  # d is zero off W: there u_j = 0 and |g_j| < 1 - margin
        window_max = max(state.window)
        e = ws.design.matvec(d)
        try:
            alpha, trial = line_search(start, state, d, delta, e, obj.design.kernel_matvec(e))
        except LineSearchError:
            status = "line_search_failure"
            break
        if ws.holds(trial.kshift):
            g_full, g_new = None, start.gradient(trial.kshift, ws.design)
        else:  # the certificate failed: full mode from the new iterate on, below
            g_full = start.gradient(trial.kshift)
            g_new = ws.take(g_full)
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
                    u=ws.expand(trial.u),
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
            best_u, best_columns, best_penalized = trial.u, ws.columns, trial.penalized
        if g_full is not None:
            ws.refreshes += 1
            ws.move(state, None, g_full)

    return SubsolverResult(
        _expand(best_u, best_columns, obj.inst.p), state.iteration, status,
        working_set=ws.size, kkt_checks=ws.checks, certified=ws.certified,
        refreshes=ws.refreshes,
    )


def _finish(
    start: WarmStart, state: InnerState, ws: WorkingSet, status: str
) -> SubsolverResult | None:
    """The final iterate with its residual r0 + X^T E, its full gradient and v.

    In full mode ``state.grad`` is the full gradient, and X^T E costs one
    product.  On a working set one pass over X makes both the full gradient
    and X^T E; when some j off W has |g_j| > 1, those j join W, the state
    moves to the new W, and None is returned: the solve goes on.
    """
    v = start.q0 + state.kshift
    if ws.columns is None:
        g, residual = state.grad, start.residual(state.shift)
    else:
        xtv, xte = ws.full.rmatvec_pair(v, state.shift)
        g = start.obj.mu * xtv
        ws.checks += 1
        entering = ws.outside(g)
        if entering.size:
            # W and the entering j are disjoint, so sorting their concatenation
            # unites them; np.union1d would import numpy.ma on its first call
            ws.move(state, np.sort(np.concatenate((ws.columns, entering))), g)
            return None
        residual = start.r0 + xte
    return SubsolverResult(
        ws.expand(state.u), state.iteration, status, residual, g, v,
        working_set=ws.size, kkt_checks=ws.checks, certified=ws.certified,
        refreshes=ws.refreshes,
    )
