"""Outer alternating direction loop for the Dantzig selector.

Each iteration updates z in closed form (a box clamp), asks the inner
nonmonotone gradient method for an approximate beta, then takes a multiplier
ascent step on lambda.  Termination uses the relative duality gap together
with primal and dual infeasibility ratios.

The product G beta (G = X^T X) is formed once per outer iteration, fresh after
the inner solve, and shared by the multiplier step, the primal stopping term,
the next z update and the next inner warm start.  With the stopping test's
own product (X lambda, then X^T) and the inner start-up gradient, an outer
iteration costs three Gram products plus two per inner iteration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .core import Instance, apply_gram, box_clamp
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


@dataclass
class AdmState:
    """Current (beta, z, lambda) triple of the outer iteration."""

    beta: np.ndarray
    z: np.ndarray
    lam: np.ndarray
    iteration: int = 0


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


def augmented_lagrangian(
    inst: Instance, z: np.ndarray, beta: np.ndarray, lam: np.ndarray, mu: float
) -> float:
    """||beta||_1 + lam . r + (mu/2) ||r||^2 with r = X^T X beta - X^T y - z."""
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    z = np.asarray(z, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    if z.shape != (inst.p,) or lam.shape != (inst.p,):
        raise ValueError(f"z and lambda must have length {inst.p}, got {z.shape} and {lam.shape}")
    r = apply_gram(inst, beta) - inst.xty - z
    return float(np.abs(beta).sum()) + float(lam @ r) + 0.5 * mu * float(r @ r)


def _gram(inst: Instance, beta: np.ndarray, gram_beta: np.ndarray | None) -> np.ndarray:
    """gram_beta when the caller already holds X^T X beta, else one fresh product."""
    if gram_beta is None:
        return apply_gram(inst, beta)
    gram_beta = np.asarray(gram_beta, dtype=np.float64)
    if gram_beta.shape != (inst.p,):
        raise ValueError(f"gram_beta must have length {inst.p}, got {gram_beta.shape}")
    return gram_beta


def update_z(
    inst: Instance,
    beta: np.ndarray,
    lam: np.ndarray,
    mu: float,
    gram_beta: np.ndarray | None = None,
) -> np.ndarray:
    """Exact minimizer of the augmented Lagrangian over the box ||D^-1 z||_inf <= delta.

    ``gram_beta`` is X^T X beta when the caller already has it.
    """
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != (inst.p,):
        raise ValueError(f"lambda must have length {inst.p}, got {lam.shape}")
    w = _gram(inst, beta, gram_beta) - inst.xty + lam / mu
    return box_clamp(w, inst.delta * inst.d)


def dual_objective(inst: Instance, lam: np.ndarray) -> float:
    """d(lambda) = -y^T X lambda - delta * sum_j d_j |lambda_j|."""
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != (inst.p,):
        raise ValueError(f"lambda must have length {inst.p}, got {lam.shape}")
    return -float(inst.y @ (inst.X @ lam)) - inst.delta * float(inst.d @ np.abs(lam))


def dual_infeasibility(inst: Instance, lam: np.ndarray) -> float:
    """||X^T X lambda||_inf - 1; negative when lambda is strictly dual-feasible."""
    return float(np.abs(apply_gram(inst, lam)).max()) - 1.0


def _criterion_terms(
    inst: Instance, beta: np.ndarray, lam: np.ndarray, gram_beta: np.ndarray | None = None
):
    """The three stopping ratios plus the dual objective (shares matvecs).

    The primal term uses X^T X beta - X^T y; pass ``gram_beta`` to reuse a
    held X^T X beta.  The dual terms cost one Gram product, X lam then X^T.
    """
    beta = np.asarray(beta, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    if beta.shape != (inst.p,) or lam.shape != (inst.p,):
        raise ValueError(
            f"beta and lambda must have length {inst.p}, got {beta.shape} and {lam.shape}"
        )
    beta_l1 = float(np.abs(beta).sum())
    corr = _gram(inst, beta, gram_beta) - inst.xty
    primal = (float(np.abs(corr / inst.d).max()) - inst.delta) / max(
        float(np.linalg.norm(beta)), 1.0
    )
    x_lam = inst.X @ lam
    dual_value = -float(inst.y @ x_lam) - inst.delta * float(inst.d @ np.abs(lam))
    dual = (float(np.abs(inst.X.T @ x_lam).max()) - 1.0) / max(float(np.linalg.norm(lam)), 1.0)
    gap = abs(beta_l1 - dual_value) / max(beta_l1, 1.0)
    return gap, primal, dual, dual_value


def stopping_metric(inst: Instance, beta: np.ndarray, lam: np.ndarray) -> float:
    """max of the relative duality gap and the primal/dual infeasibility ratios.

    The last two ratios may be negative; the gap term is nonnegative, so the
    max is as well.  The dual objective is used as-is even when lambda is
    dual-infeasible.
    """
    gap, primal, dual, _ = _criterion_terms(inst, beta, lam)
    return max(gap, primal, dual)


def update_lambda(
    inst: Instance,
    lam: np.ndarray,
    beta_next: np.ndarray,
    z_next: np.ndarray,
    mu: float,
    gram_beta: np.ndarray | None = None,
) -> np.ndarray:
    """Multiplier step lam + mu * (X^T X beta_next - X^T y - z_next).

    ``gram_beta`` is X^T X beta_next when the caller already has it.
    """
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    lam = np.asarray(lam, dtype=np.float64)
    z_next = np.asarray(z_next, dtype=np.float64)
    if lam.shape != (inst.p,) or z_next.shape != (inst.p,):
        raise ValueError(
            f"lambda and z must have length {inst.p}, got {lam.shape} and {z_next.shape}"
        )
    return lam + mu * (_gram(inst, beta_next, gram_beta) - inst.xty - z_next)


def solve(
    inst: Instance,
    config: AdmConfig,
    beta0: np.ndarray | None = None,
    lambda0: np.ndarray | None = None,
    callback=None,
) -> tuple[np.ndarray, np.ndarray, RunReport]:
    """Run the alternating direction method from (beta0, lambda0), default zeros.

    Per iteration: closed-form z update, inner solve for beta warm-started at
    the previous beta, multiplier step, then the stopping test.  X^T X beta is
    computed once after each inner solve and shared by the steps that need it
    (see the module docstring for the cost per iteration).  A subsolver
    that misses its tolerance contributes its best iterate and is counted in
    the report.  Non-finite values end the run with status numerical_failure,
    returning the state at failure.
    """
    p = inst.p
    beta = np.zeros(p) if beta0 is None else np.array(beta0, dtype=np.float64)
    lam = np.zeros(p) if lambda0 is None else np.array(lambda0, dtype=np.float64)
    if beta.shape != (p,) or lam.shape != (p,):
        raise ValueError(f"beta0 and lambda0 must have length {p}")
    sub_config = config.resolved_subsolver()

    t_start = time.perf_counter()
    state = AdmState(beta=beta, z=np.zeros(p), lam=lam)
    gram_beta = apply_gram(inst, state.beta)
    gap, primal, dual, dual_value = _criterion_terms(inst, state.beta, state.lam, gram_beta)
    metric = max(gap, primal, dual)
    metric_history = [metric]
    dual_history = [dual_value]
    inner_total = 0
    sub_failures = 0
    status = STATUS_MAX_ITER if metric > config.tol else STATUS_CONVERGED

    while status == STATUS_MAX_ITER and state.iteration < config.max_outer_iter:
        lam_prev = state.lam
        state.z = update_z(inst, state.beta, state.lam, config.mu, gram_beta)
        objective = SubproblemObjective(inst, state.z, state.lam, config.mu, gram_u0=gram_beta)
        result = solve_subproblem(objective, state.beta, sub_config)
        inner_total += result.iterations
        if not result.succeeded:
            sub_failures += 1
        state.beta = result.u
        gram_beta = apply_gram(inst, state.beta)
        state.lam = update_lambda(inst, state.lam, state.beta, state.z, config.mu, gram_beta)
        state.iteration += 1

        if not (
            np.isfinite(state.beta).all()
            and np.isfinite(state.lam).all()
            and np.isfinite(state.z).all()
        ):
            status = STATUS_NUMERICAL_FAILURE
            break
        gap, primal, dual, dual_value = _criterion_terms(inst, state.beta, state.lam, gram_beta)
        metric = max(gap, primal, dual)
        metric_history.append(metric)
        dual_history.append(dual_value)
        if callback is not None:
            callback(
                OuterIterationRecord(
                    iteration=state.iteration,
                    z=state.z.copy(),
                    beta=state.beta.copy(),
                    lam=state.lam.copy(),
                    lam_prev=lam_prev.copy(),
                    metric=metric,
                )
            )
        if metric <= config.tol:
            status = STATUS_CONVERGED

    report = RunReport(
        outer_iterations=state.iteration,
        inner_iteration_total=inner_total,
        stopping_metric_history=metric_history,
        dual_objective_history=dual_history,
        wall_time=time.perf_counter() - t_start,
        status=status,
        subsolver_failures=sub_failures,
    )
    return state.beta, state.lam, report
