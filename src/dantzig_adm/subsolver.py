"""Nonmonotone spectral gradient method for the l1-penalized inner problem.

The outer loop freezes (z, lambda, mu) and asks for an approximate minimizer of

    F(u) = f(u) + ||u||_1,    f(u) = (mu/2) ||X^T X u - X^T y - z + lambda/mu||_2^2.

Search directions come from a soft-threshold (prox-gradient) step at the
current spectral steplength, acceptance uses an Armijo test against the worst
objective over a short memory window, and the steplength is a safeguarded
Barzilai-Borwein update.

Let G = X^T X, r(u) = G u - c the residual, and r0 = r(u0) at the warm
start u0.  The outer loop's z update forms r0 and hands it over with the
problem (:class:`SubproblemObjective`), so an inner solve makes no Gram
product for it.  The iterate carries its shift E = G (u - u0), so

    r(u) = r0 + E,    grad f(u) = mu G r(u),

and an iteration forms e = G d for the search direction d.  The smooth
part f is quadratic, so along d

    f(u + a d) = f(u) + a mu r(u).e + (a^2/2) mu e.e,

and each line-search trial costs O(p) operations.  f is carried from
iterate to iterate this way, with an error relative to f itself.  Formed
afresh as (mu/2) ||r(u)||^2 it would lose, to cancellation, every
digit by which f has fallen below f(u0), and a tightly converged solve
cannot afford that.

So an iteration costs two products with G, e = G d and, after the line
search, the gradient G r at the accepted point, however many backtracks it
takes; the start-up gradient G r0 is one more, and the returned residual
costs none.  The design operator
(:class:`~dantzig_adm.core.DesignOperator`) makes each with the formed G
when X has fewer columns than rows, and as X^T (X v) otherwise, where X d
is the support-restricted product of
:meth:`~dantzig_adm.core.DesignOperator.matvec` (d is nonzero only where u
or its prox step is).  The outer loop runs each inner solve on the block
X[:, W] of its round's columns (see :func:`~dantzig_adm.adm.solve`), so
while |W| < n these are products with that block's |W| x |W| Gram matrix.

Besides its products, an iteration makes a few passes over vectors of
length p (|W| in a round), and forms each quantity once.  One
soft-threshold at steplength 1, SoftThresh(u - grad, 1), and its step
serve the termination test and, when the spectral steplength is 1, the
search direction too (u - 1.0 * grad is u - grad bit for bit); at any other
steplength the direction takes one more soft-threshold.  ||u||_1 comes with
the iterate from the line search, which sums |u + alpha d| once per trial;
at alpha = 1 the trial and its shift are u + d and E + e, with no
multiplication.  The accepted trial adds r0 + E once, for its gradient, the
next line search's slope and the returned residual, and the spectral step
takes two differences and two dot products.  At (720, 2560, 80), seeds
100-105, the steplength was 1 on 37% and 20% of the iterations of unit
rows at sigma 0.05 and 0.01 and on all of those of orthogonal rows, and
the line search accepted alpha = 1 on 88%, 71% and 100%.

The result carries the returned u with r(u) = r0 + E and the gradient
mu G r(u), which the iteration already holds, at every exit: the best
earlier iterate of a failed solve is kept with its gradient.  The outer
loop reads G u = r + c, its multiplier step and the multiplier's Gram
product off these, with no product of its own.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import DesignOperator, Instance, apply_gram, soft_thresh

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


@dataclass(frozen=True, eq=False)
class SubproblemObjective:
    """One inner problem, with (z, lambda, mu) frozen, seen from its warm start u0.

    Stores the constant c = X^T y + z - lambda/mu so that
    f(u) = (mu/2) ||gram(u) - c||^2, and takes r0 = r(u0) = gram(u0) - c at
    the warm start u0 later handed to :func:`solve_subproblem`: the outer
    loop's z update forms it (:func:`~dantzig_adm.adm.update_z`), so the
    inner solve makes no Gram product for it.  ``design`` makes the inner
    solver's products; the outer loop shares one across the inner problems
    of a solve, so its G is formed once.  ``scaled`` is lambda/mu, which
    the outer loop forms once for the z update and for c.  z, lambda, r0
    and ``scaled`` are float64 vectors of length p and mu is positive, as
    the outer loop hands them; none is checked here.
    """

    inst: Instance
    z_fixed: np.ndarray
    lambda_fixed: np.ndarray
    mu: float
    r0: np.ndarray = field(repr=False)
    design: DesignOperator = field(repr=False)
    scaled: np.ndarray = field(repr=False)
    c: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "c", self.inst.xty + self.z_fixed - self.scaled)

    def gradient(self, residual: np.ndarray) -> np.ndarray:
        """grad f(u) = mu G r(u) from the residual r(u); one product with G."""
        return self.mu * self.design.gram_matvec(residual)

    def residual(self, u: np.ndarray) -> np.ndarray:
        """gram(u) - c formed afresh, one apply_gram call: the solver carries r(u) instead."""
        return apply_gram(self.inst, u) - self.c


class Point(NamedTuple):
    """An iterate with its shift E = G (u - u0), residual, f(u), penalized value and ||u||_1.

    ``residual`` is r(u) = r0 + E, formed once for the gradient at u, the
    next line search's slope and the returned residual.  ``penalized`` is
    f(u) + ||u||_1, and ``l1`` is ||u||_1 as it was summed for the penalized
    value (the line search sums it once per trial), so
    :func:`search_direction` does not sum |u| again.
    """

    u: np.ndarray
    shift: np.ndarray
    residual: np.ndarray
    smooth: float
    penalized: float
    l1: float


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
    """Returned iterate, how the run ended, and the residual and gradient at u.

    ``residual`` is r(u) = X^T X u - c, the iterate's held r0 + E, and
    ``gradient`` is mu X^T X r(u), the one the iteration held at u.
    """

    u: np.ndarray
    iterations: int
    status: str  # converged | stationary | max_iter | line_search_failure
    residual: np.ndarray = field(repr=False)
    gradient: np.ndarray = field(repr=False)

    @property
    def succeeded(self) -> bool:
        return self.status in ("converged", "stationary")


def search_direction(
    u: np.ndarray,
    u_l1: float,
    bar_alpha: float,
    grad: np.ndarray,
    target: np.ndarray,
    step: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Prox-gradient direction d and its predicted decrease Delta.

    With ``grad`` = grad f(u), d = SoftThresh(u - bar_alpha * grad, bar_alpha) - u
    and Delta = grad . d + ||u + d||_1 - ||u||_1; Delta <= 0 always, with
    equality only at a minimizer of the penalized objective.  ``u_l1`` is
    ||u||_1, and ``bar_alpha`` lies in (0, 1], as :func:`bb_step` keeps it.
    ``target`` and ``step`` are SoftThresh(u - grad, 1) and ``target - u``,
    the termination test's; at bar_alpha == 1.0 they are the prox point and
    d, since u - 1.0 * grad equals u - grad bit for bit, and at any other
    steplength both are formed here.
    """
    if bar_alpha != 1.0:
        target = soft_thresh(u - bar_alpha * grad, bar_alpha)
        step = target - u
    delta = float(grad @ step) + float(np.add.reduce(np.abs(target))) - u_l1
    return step, delta


def line_search(
    obj: SubproblemObjective,
    point: Point,
    reference: float,
    d: np.ndarray,
    delta: float,
    e: np.ndarray,
) -> tuple[float, Point] | None:
    """Largest alpha in {1, ETA, ETA^2, ...} passing the nonmonotone Armijo test.

    Acceptance compares the trial objective against ``reference``, the
    maximum penalized value over the memory window, plus
    SIGMA_LS * alpha * delta.  ``e`` is the direction's product G d.  The
    smooth value of a trial is the quadratic
    f(u) + alpha grad f(u).d + (alpha^2/2) mu e.e, with the slope
    grad f(u).d = mu r(u).e from the point's held residual, so a trial makes
    no product.  The accepted point holds its own residual r0 + E.  At
    alpha = 1 the trial is u + d and E + e, with no multiplication by 1.0
    (the same bytes).  ``delta`` is negative: :func:`solve_subproblem`
    stops at a fixed point before it searches.  Returns None after
    MAX_BACKTRACKS rejected powers.
    """
    slope = obj.mu * float(point.residual @ e)
    curvature = obj.mu * float(e @ e)
    alpha = 1.0
    for _ in range(MAX_BACKTRACKS):
        u_trial = _moved(point.u, alpha, d)
        f_trial = point.smooth + alpha * (slope + 0.5 * alpha * curvature)
        l1 = float(np.add.reduce(np.abs(u_trial)))
        penalized = f_trial + l1
        if penalized <= reference + SIGMA_LS * alpha * delta:
            shift = _moved(point.shift, alpha, e)
            return alpha, Point(u_trial, shift, obj.r0 + shift, f_trial, penalized, l1)
        alpha *= ETA
    return None


def _moved(v: np.ndarray, alpha: float, w: np.ndarray) -> np.ndarray:
    """v + alpha w, and v + w at alpha = 1 (the same bytes, with no multiplication)."""
    return v + w if alpha == 1.0 else v + alpha * w


def bb_step(s: np.ndarray, g: np.ndarray) -> float:
    """Safeguarded spectral steplength min{max{||s||^2 / (s.g), ALPHA_LO}, 1}.

    Nonpositive curvature s.g <= 0 is treated as an infinite ratio, which the
    upper clamp maps to 1.
    """
    ss = float(s @ s)
    if ss == 0.0:
        raise ValueError("zero step: the caller should have terminated")
    curvature = float(s @ g)
    if curvature <= 0.0:
        return 1.0
    return min(max(ss / curvature, ALPHA_LO), 1.0)


def inner_termination_metric(step: np.ndarray, penalized: float) -> float:
    """||SoftThresh(u - grad, 1) - u||_2 / max(penalized, 1).

    ``step`` is SoftThresh(u - grad, 1) - u with grad = grad f(u), and
    ``penalized`` is f(u) + ||u||_1.  The norm is sqrt(step . step), as
    np.linalg.norm forms it for a vector.
    """
    return math.sqrt(float(step @ step)) / max(penalized, 1.0)


def solve_subproblem(
    obj: SubproblemObjective,
    u0: np.ndarray,
    tol_sub: float,
    callback=None,
) -> SubsolverResult:
    """Run the nonmonotone spectral gradient method from warm start u0.

    ``obj.r0`` is the residual at u0.  Stops when the termination metric
    drops below ``tol_sub`` (positive, as
    :meth:`~dantzig_adm.adm.AdmConfig.inner_tolerance` gives it), when the
    predicted decrease vanishes or the accepted step leaves u unchanged in
    floating point (a fixed point either way, status stationary), or at
    MAX_INNER_ITER, where only the first is tested.  On line-search failure
    or cap exhaustion the best iterate seen (by penalized objective) is
    returned with a flagged status; the caller decides whether to accept
    it.  Every returned u comes with its residual and gradient.

    Start-up costs the gradient G r0, and each iteration G d and the new
    gradient; the returned residual costs no product.
    """
    u = np.array(u0, dtype=np.float64)
    origin = np.zeros_like(obj.r0)
    smooth = 0.5 * obj.mu * float(obj.r0 @ obj.r0)
    l1 = float(np.add.reduce(np.abs(u)))
    point = Point(u, origin, obj.r0 + origin, smooth, smooth + l1, l1)
    grad, bar_alpha, iteration = obj.gradient(point.residual), 1.0, 0
    best = point, grad  # the least penalized iterate so far, with its gradient
    window = deque([point.penalized], maxlen=MEMORY + 1)  # last MEMORY+1 penalized values

    while True:
        # the prox step at steplength 1: the termination test's, and the
        # direction's when bar_alpha is 1
        target = soft_thresh(point.u - grad, 1.0)
        step = target - point.u
        if inner_termination_metric(step, point.penalized) <= tol_sub:
            return _finish(point, grad, iteration, "converged")
        if iteration == MAX_INNER_ITER:
            return _finish(*best, iteration, "max_iter")
        d, delta = search_direction(point.u, point.l1, bar_alpha, grad, target, step)
        if delta > -STATIONARY_RTOL * max(1.0, point.penalized):
            return _finish(point, grad, iteration, "stationary")
        window_max = max(window)
        e = obj.design.gram_matvec(d)
        found = line_search(obj, point, window_max, d, delta, e)
        if found is None:
            return _finish(*best, iteration, "line_search_failure")
        alpha, trial = found
        if (trial.u == point.u).all():  # the step is lost to rounding: u is a fixed point
            return _finish(point, grad, iteration, "stationary")
        g_new = obj.gradient(trial.residual)
        bar_alpha_next = bb_step(trial.u - point.u, g_new - grad)
        point, grad = trial, g_new
        iteration += 1
        window.append(point.penalized)
        if callback is not None:
            callback(
                InnerIterationRecord(
                    iteration=iteration,
                    u=point.u.copy(),
                    delta=delta,
                    alpha=alpha,
                    bar_alpha=bar_alpha,
                    bar_alpha_next=bar_alpha_next,
                    penalized=point.penalized,
                    window_max=window_max,
                )
            )
        bar_alpha = bar_alpha_next
        if point.penalized < best[0].penalized:
            best = point, grad


def _finish(point: Point, grad: np.ndarray, iteration: int, status: str) -> SubsolverResult:
    """The returned iterate with its held residual r0 + E and gradient."""
    return SubsolverResult(point.u, iteration, status, point.residual, grad)
