"""Nonmonotone spectral gradient method for the l1-penalized inner problem.

The outer loop freezes (z, lambda, mu) and asks for an approximate minimizer of

    F(u) = f(u) + ||u||_1,    f(u) = (mu/2) ||X^T X u - X^T y - z + lambda/mu||_2^2.

Search directions come from a soft-threshold (prox-gradient) step at the
current spectral steplength, acceptance uses an Armijo test against the worst
objective over a short memory window, and the steplength is a safeguarded
Barzilai-Borwein update.

The residual r(u) = X^T X u - c is linear in u, so r(u + a d) = r(u) + a G d
with G = X^T X.  Each iteration forms G d once and gets every line-search
trial residual by an axpy; the gradient at the accepted point is one more
Gram product.  An iteration therefore costs two Gram products however many
backtracks it takes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .core import Instance, _as_vector, apply_gram, soft_thresh

STATIONARY_RTOL = 1e-15  # |Delta| below this (times objective scale) means a fixed point


class LineSearchError(RuntimeError):
    """No steplength in {1, eta, eta^2, ...} passed the acceptance test."""


@dataclass(frozen=True, eq=False)
class SubproblemObjective:
    """Smooth part of one inner problem, with (z, lambda, mu) frozen.

    Stores the constant c = X^T y + z - lambda/mu so that
    f(u) = (mu/2) ||gram(u) - c||^2.  ``gram_u0`` optionally carries
    X^T X u0 for the warm start u0 later handed to :func:`solve_subproblem`,
    so the start-up residual costs no Gram product.
    """

    inst: Instance
    z_fixed: np.ndarray
    lambda_fixed: np.ndarray
    mu: float
    gram_u0: np.ndarray | None = field(default=None, repr=False)
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

    def residual(self, u: np.ndarray) -> np.ndarray:
        """gram(u) - c; one apply_gram call, shared by value and gradient."""
        return apply_gram(self.inst, u) - self.c

    def value_from_residual(self, r: np.ndarray) -> float:
        return 0.5 * self.mu * float(r @ r)

    def value(self, u: np.ndarray) -> float:
        return self.value_from_residual(self.residual(u))

    def grad_from_residual(self, r: np.ndarray) -> np.ndarray:
        return self.mu * apply_gram(self.inst, r)


def grad_fk(obj: SubproblemObjective, u: np.ndarray) -> np.ndarray:
    """Gradient mu * X^T X (X^T X u - X^T y - z + lambda/mu); two apply_gram calls."""
    return obj.grad_from_residual(obj.residual(u))


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


@dataclass
class InnerState:
    """Current iterate, spectral step, and the nonmonotone objective window."""

    u: np.ndarray
    bar_alpha: float = 1.0
    window: deque = None  # last memory+1 penalized objective values
    iteration: int = 0


@dataclass(frozen=True, eq=False)
class TrialPoint:
    """Accepted line-search point with the evaluations already paid for."""

    u: np.ndarray
    residual: np.ndarray
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
    u: np.ndarray
    iterations: int
    status: str  # converged | stationary | max_iter | line_search_failure

    @property
    def succeeded(self) -> bool:
        return self.status in ("converged", "stationary")


def search_direction(
    obj: SubproblemObjective,
    u: np.ndarray,
    bar_alpha: float,
    grad: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Prox-gradient direction d and its predicted decrease Delta.

    d = SoftThresh(u - bar_alpha * grad, bar_alpha) - u and
    Delta = grad . d + ||u + d||_1 - ||u||_1; Delta <= 0 always, with equality
    only at a minimizer of the penalized objective.
    """
    if not 0 < bar_alpha <= 1:
        raise ValueError(f"bar_alpha must lie in (0, 1], got {bar_alpha}")
    g = grad_fk(obj, u) if grad is None else grad
    target = soft_thresh(u - bar_alpha * g, bar_alpha)
    d = target - u
    delta = float(g @ d) + float(np.abs(target).sum()) - float(np.abs(u).sum())
    return d, delta


def line_search(
    obj: SubproblemObjective,
    state: InnerState,
    d: np.ndarray,
    delta: float,
    config: SubsolverConfig,
    residuals: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[float, TrialPoint]:
    """Largest alpha in {1, eta, eta^2, ...} passing the nonmonotone Armijo test.

    Acceptance compares the trial objective against the maximum penalized value
    over the memory window plus sigma_ls * alpha * delta.  ``residuals`` is
    the pair (r(state.u), G d); each trial residual is then r + alpha * G d,
    with no Gram product.  Without it the pair is computed here (two
    products).  Raises LineSearchError after max_backtracks rejected powers.
    """
    if not delta < 0:
        raise ValueError(f"line search needs a strict descent prediction, got Delta={delta}")
    if residuals is None:
        residuals = (obj.residual(state.u), apply_gram(obj.inst, d))
    r, gd = residuals
    reference = max(state.window)
    alpha = 1.0
    for _ in range(config.max_backtracks):
        u_trial = state.u + alpha * d
        r_trial = r + alpha * gd
        f_trial = obj.value_from_residual(r_trial)
        penalized = f_trial + float(np.abs(u_trial).sum())
        if penalized <= reference + config.sigma_ls * alpha * delta:
            return alpha, TrialPoint(u_trial, r_trial, f_trial, penalized)
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


def inner_termination_metric(
    obj: SubproblemObjective,
    u: np.ndarray,
    grad: np.ndarray | None = None,
    penalized: float | None = None,
) -> float:
    """||SoftThresh(u - grad f(u), 1) - u||_2 / max(f(u) + ||u||_1, 1)."""
    g = grad_fk(obj, u) if grad is None else grad
    if penalized is None:
        penalized = obj.value(u) + float(np.abs(u).sum())
    step = soft_thresh(u - g, 1.0) - u
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
    to accept it.

    Start-up costs one Gram product (the gradient) when ``obj.gram_u0`` holds
    X^T X u0, two otherwise; each iteration then costs two (G d and the new
    gradient).
    """
    if config.tol_sub is None:
        raise ValueError("config.tol_sub must be set for a standalone subproblem solve")
    u = np.array(u0, dtype=np.float64)
    r = obj.residual(u) if obj.gram_u0 is None else obj.gram_u0 - obj.c
    f = obj.value_from_residual(r)
    g = obj.grad_from_residual(r)
    penalized = f + float(np.abs(u).sum())

    state = InnerState(u=u, bar_alpha=1.0, window=deque([penalized], maxlen=config.memory + 1))
    best_u, best_penalized = u, penalized
    status = "max_iter"

    while state.iteration < config.max_inner_iter:
        if inner_termination_metric(obj, state.u, grad=g, penalized=penalized) <= config.tol_sub:
            return SubsolverResult(state.u, state.iteration, "converged")
        d, delta = search_direction(obj, state.u, state.bar_alpha, grad=g)
        if delta > -STATIONARY_RTOL * max(1.0, penalized):
            return SubsolverResult(state.u, state.iteration, "stationary")
        window_max = max(state.window)
        gd = apply_gram(obj.inst, d)
        try:
            alpha, trial = line_search(obj, state, d, delta, config, residuals=(r, gd))
        except LineSearchError:
            status = "line_search_failure"
            break
        g_new = obj.grad_from_residual(trial.residual)
        bar_alpha_next = bb_step(trial.u - state.u, g_new - g, config)
        state.u = trial.u
        state.iteration += 1
        state.window.append(trial.penalized)
        g = g_new
        r = trial.residual
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

    if status == "max_iter" and inner_termination_metric(obj, state.u, grad=g, penalized=penalized) <= config.tol_sub:
        return SubsolverResult(state.u, state.iteration, "converged")
    return SubsolverResult(best_u, state.iteration, status)
