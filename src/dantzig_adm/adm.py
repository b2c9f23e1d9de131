"""Outer alternating direction loop for the Dantzig selector.

Each iteration updates z in closed form (a box clamp), asks the inner
nonmonotone gradient method for an approximate beta, then takes a multiplier
ascent step on lambda.  Termination uses the relative duality gap together
with primal and dual infeasibility ratios, built from the terms of
:func:`_criterion_terms`, the one routine that computes them (the
certificate of :func:`~dantzig_adm.evaluation.feasibility_report` uses it
too).

The outer step is read off the inner solver.  With G = X^T X and
c = X^T y + z - lambda/mu, the inner solver returns beta together with the
residual r = G beta - c and the gradient g = mu G r it already holds.  So
G beta = r + c, the multiplier step lambda + mu (G beta - X^T y - z) equals
mu r, and X^T X lambda_next = g.  G beta serves the multiplier step, the
primal stopping term, the next z update and the next inner warm start; g
serves the dual stopping term; and the dual objective uses the cached X^T y.

The z clamp, the multiplier step and the stopping test therefore make no
product with X.  An outer iteration costs what its inner solve costs: three
n x p products (X r0, X^T q0, X^T E), plus two n x p and one n x n product
per inner iteration.  When the inner solver returns its best earlier iterate
instead of its final one, G beta and X^T X lambda are formed fresh, two more
Gram products.  One design operator serves every inner solve of a solve, so
the n x n kernel K = X X^T is formed at most once per solve (about
n^2 p / 2 multiply-adds) and dropped when the solve returns.  The default
zero start costs no product: X^T X 0 = 0.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .core import DesignOperator, Instance, apply_gram, box_clamp
from .subsolver import SubproblemObjective, SubsolverConfig, solve_subproblem

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max_iter"
STATUS_NUMERICAL_FAILURE = "numerical_failure"


@dataclass
class AdmConfig:
    """Outer-loop parameters: penalty mu, tolerance, and inner-solver settings.

    The inner tolerance is sub_tol_factor * tol unless the nested subsolver
    config pins tol_sub explicitly.
    """

    mu: float
    tol: float
    sub_tol_factor: float = 0.1
    max_outer_iter: int = 10000
    subsolver: SubsolverConfig = field(default_factory=SubsolverConfig)

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if not 0 < self.sub_tol_factor <= 1:
            raise ValueError(f"sub_tol_factor must lie in (0, 1], got {self.sub_tol_factor}")
        if self.max_outer_iter < 1:
            raise ValueError(f"max_outer_iter must be positive, got {self.max_outer_iter}")

    def resolved_subsolver(self) -> SubsolverConfig:
        if self.subsolver.tol_sub is not None:
            return self.subsolver
        return replace(self.subsolver, tol_sub=self.sub_tol_factor * self.tol)


@dataclass(frozen=True, eq=False)
class OuterIterationRecord:
    """Diagnostics handed to an optional per-iteration callback."""

    iteration: int
    z: np.ndarray
    beta: np.ndarray
    lam: np.ndarray
    lam_prev: np.ndarray
    metric: float


@dataclass
class RunReport:
    """Counters and histories of one solve, in benchmark-table units."""

    outer_iterations: int
    inner_iteration_total: int
    stopping_metric_history: list[float]
    dual_objective_history: list[float]
    wall_time: float
    status: str
    subsolver_failures: int = 0


def update_z(inst: Instance, lam: np.ndarray, mu: float, gram_beta: np.ndarray) -> np.ndarray:
    """Exact minimizer of the augmented Lagrangian over the box ||D^-1 z||_inf <= delta.

    ``gram_beta`` is X^T X beta at the current beta.
    """
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != (inst.p,):
        raise ValueError(f"lambda must have length {inst.p}, got {lam.shape}")
    w = gram_beta - inst.xty + lam / mu
    return box_clamp(w, inst.delta * inst.d)


def _criterion_terms(
    inst: Instance,
    beta: np.ndarray,
    lam: np.ndarray,
    gram_beta: np.ndarray,
    gram_lam: np.ndarray,
) -> tuple[float, float, float, float]:
    """The unnormalised stopping and certificate terms at (beta, lambda).

    With G = X^T X, ``gram_beta`` = G beta and ``gram_lam`` = G lambda,
    returns

    - the primal excess max_j |(G beta - X^T y)_j| / d_j - delta,
    - the dual excess ||G lambda||_inf - 1,
    - ||beta||_1,
    - the dual objective -y^T X lambda - delta * sum_j d_j |lambda_j|, from the
      cached X^T y.

    Both excesses are negative when their constraint holds strictly.  The
    stopping test of :func:`solve` divides them into ratios, and
    :func:`~dantzig_adm.evaluation.feasibility_report` takes their positive
    parts; neither makes a product of its own here.
    """
    primal = float(np.abs((gram_beta - inst.xty) / inst.d).max()) - inst.delta
    dual = float(np.abs(gram_lam).max()) - 1.0
    beta_l1 = float(np.abs(beta).sum())
    dual_value = -float(inst.xty @ lam) - inst.delta * float(inst.d @ np.abs(lam))
    return primal, dual, beta_l1, dual_value


def update_lambda(
    inst: Instance,
    lam: np.ndarray,
    z_next: np.ndarray,
    mu: float,
    gram_beta: np.ndarray,
) -> np.ndarray:
    """Multiplier step lam + mu * (X^T X beta_next - X^T y - z_next).

    ``gram_beta`` is X^T X beta_next for the new iterate beta_next.
    """
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    lam = np.asarray(lam, dtype=np.float64)
    z_next = np.asarray(z_next, dtype=np.float64)
    if lam.shape != (inst.p,) or z_next.shape != (inst.p,):
        raise ValueError(
            f"lambda and z must have length {inst.p}, got {lam.shape} and {z_next.shape}"
        )
    return lam + mu * (gram_beta - inst.xty - z_next)


def solve(
    inst: Instance,
    config: AdmConfig,
    beta0: np.ndarray | None = None,
    lambda0: np.ndarray | None = None,
    callback=None,
) -> tuple[np.ndarray, np.ndarray, RunReport]:
    """Run the alternating direction method from (beta0, lambda0), default zeros.

    Per iteration: closed-form z update, inner solve for beta warm-started at
    the previous beta, multiplier step, then the stopping test.  Its metric
    is the max of the relative duality gap | ||beta||_1 - d(lambda) | /
    max(||beta||_1, 1) and the primal and dual excesses of
    :func:`_criterion_terms` over max(||beta||_2, 1) and max(||lambda||_2, 1).
    The two ratios may be negative; the gap is not, so neither is the metric.
    The dual objective d is used as-is even when lambda is dual-infeasible.
    The metric at (beta0, lambda0) is the first entry of the history.  X^T X beta
    and X^T X lambda come from the inner solver's residual and gradient (see
    the module docstring for the identities and the cost per iteration).  The
    products go through one DesignOperator built here and dropped on return.
    A subsolver that misses its tolerance contributes its best iterate and is
    counted in the report.  Non-finite values end the run with status numerical_failure,
    returning the state at failure.
    """
    p = inst.p
    beta = np.zeros(p) if beta0 is None else np.array(beta0, dtype=np.float64)
    lam = np.zeros(p) if lambda0 is None else np.array(lambda0, dtype=np.float64)
    if beta.shape != (p,) or lam.shape != (p,):
        raise ValueError(f"beta0 and lambda0 must have length {p}")
    sub_config = config.resolved_subsolver()

    t_start = time.perf_counter()
    design = DesignOperator(inst.X)
    # a zero start (the default) needs no product: X^T X 0 = 0
    gram_beta = apply_gram(inst, beta) if beta.any() else np.zeros(p)
    gram_lam = apply_gram(inst, lam) if lam.any() else np.zeros(p)
    metric_history: list[float] = []
    dual_history: list[float] = []
    iteration = inner_total = sub_failures = 0

    while True:
        primal, dual, beta_l1, dual_value = _criterion_terms(inst, beta, lam, gram_beta, gram_lam)
        metric = max(
            abs(beta_l1 - dual_value) / max(beta_l1, 1.0),
            primal / max(float(np.linalg.norm(beta)), 1.0),
            dual / max(float(np.linalg.norm(lam)), 1.0),
        )
        metric_history.append(metric)
        dual_history.append(dual_value)
        if callback is not None and iteration > 0:
            callback(
                OuterIterationRecord(
                    iteration=iteration,
                    z=z.copy(),
                    beta=beta.copy(),
                    lam=lam.copy(),
                    lam_prev=lam_prev.copy(),
                    metric=metric,
                )
            )
        if metric <= config.tol:
            status = STATUS_CONVERGED
            break
        if iteration == config.max_outer_iter:
            status = STATUS_MAX_ITER
            break

        lam_prev = lam
        z = update_z(inst, lam, config.mu, gram_beta)
        objective = SubproblemObjective(inst, z, lam, config.mu, gram_u0=gram_beta, design=design)
        result = solve_subproblem(objective, beta, sub_config)
        inner_total += result.iterations
        if not result.succeeded:
            sub_failures += 1
        beta = result.u
        if result.residual is None:  # the best earlier iterate: nothing held for it
            gram_beta = apply_gram(inst, beta)
        else:  # G beta = r + c; the multiplier step is mu r, so X^T X lambda = g
            gram_beta = result.residual + objective.c
        lam = update_lambda(inst, lam, z, config.mu, gram_beta)
        gram_lam = apply_gram(inst, lam) if result.residual is None else result.gradient
        iteration += 1
        if not (
            np.isfinite(beta).all()
            and np.isfinite(lam).all()
            and np.isfinite(z).all()
        ):
            status = STATUS_NUMERICAL_FAILURE
            break

    report = RunReport(
        outer_iterations=iteration,
        inner_iteration_total=inner_total,
        stopping_metric_history=metric_history,
        dual_objective_history=dual_history,
        wall_time=time.perf_counter() - t_start,
        status=status,
        subsolver_failures=sub_failures,
    )
    return beta, lam, report
