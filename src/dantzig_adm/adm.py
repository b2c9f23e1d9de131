"""Outer alternating direction loop for the Dantzig selector.

Each iteration updates z in closed form (a box clamp), asks the inner
nonmonotone gradient method for an approximate beta, then takes a multiplier
ascent step on lambda.  Termination uses the relative duality gap together
with primal and dual infeasibility ratios, built from the terms of
:func:`_criterion_terms`, the one routine that computes them (the
certificate of :func:`~dantzig_adm.evaluation.feasibility_report` uses it
too).

Each inner solve is approximate.  Outer iteration k stops it at tol_sub_k
(see :class:`AdmConfig`).  While SUB_TOL_START * 2^-k lies above the floor
f * tol (f = SUB_TOL_FACTOR), tol_sub_k is that halving schedule: the
first inner solves cost the most and are moved furthest by the next outer
steps, so they stop early.  From the first k where it does not (k = 8 at
tol = 1e-3), tol_sub_k = f * max(tol, m_k), where m_k is the least
stopping metric of outer iterations 0..k: the inner error is bounded by a
fraction of the best outer residual so far, as in relative-error inexact
ADM (Eckstein & Silva, Math. Prog. 2013), and falls to f * tol as the
solve converges.  Before the switch the excess over the floor halves with
each outer iteration, so it is summable, as the convergence of inexact ADM
asks (Eckstein & Bertsekas, Math. Prog. 1992).  Two shortcuts fail.  A
tolerance tied to the metric from k = 0 can stop the first inner solve at
once and leave beta at 0 while the metric holds still (at sigma = 0.01 it
stopped the first inner solve after 5 iterations, and outer iterations
rose 11.3 -> 13.9).  The current metric in place of the running minimum
lets the two feed each other: on 9 of 10 orthogonal acceptance rows the
metric grew to 4-34, the inner solves made almost no iterations, and the
solve ran to max_outer_iter.  The final stopping test does not depend on
tol_sub.

The outer step is read off the inner solver.  With G = X^T X and
c = X^T y + z - lambda/mu, the inner solver returns beta together with the
residual r = G beta - c and the gradient g = mu G r it already holds.  So
G beta = r + c, the multiplier step lambda + mu (G beta - X^T y - z) equals
mu r, and X^T X lambda_next = g.  G beta serves the multiplier step, the
primal stopping term, the next z update and the next inner warm start; g
serves the dual stopping term; and the dual objective uses the cached X^T y.

The z clamp, the multiplier step and the stopping test therefore make no
product with X.  An outer iteration costs what its inner solve costs: one
n x n product and two products with X per inner iteration, made with the
copied rows X^T[W] of a working set of at most a quarter of the
coordinates, plus a few n x p products per inner solve (see
:mod:`~dantzig_adm.subsolver`).  Each inner solve is handed the previous
one's final result as its reference.  When that certifies a working set
from the start, the inner solve reads all of X once: in one fused pass for
its full gradient and residual when it stops.  Its X r0 reads only the
columns where r0 is nonzero, where the z clamp is active.  Without a
reference (the first inner solve, and the one after a best earlier iterate)
or a certificate, X^T q0 and the first iteration use X too.  When the inner
solver returns its best earlier iterate instead of its final one, G beta and
X^T X lambda are formed fresh, two more Gram products.  One design operator
serves every inner solve of a solve, so the n x n kernel K = X X^T is
formed at most once per solve (about n^2 p / 2 multiply-adds), the buffer
for X^T[W] is allocated at most once, and both are dropped when the solve
returns.

The default start is not the paper's beta = 0 but a screened least-squares
fit refined by hard-thresholding pursuit (:func:`screened_start`).  Round 0
fits y by least squares, as the Gauss-Dantzig step does (Candes & Tao, Ann.
Statist. 2007), on the k = min(n // START_ROWS_PER_COLUMN, p) columns of
largest |x_j^T y| / d_j, ranked from the cached X^T y as sure independence
screening does (Fan & Lv, JRSS-B 2008).  Each later round moves the k
columns to those of largest |beta_j + x_j^T r / d_j^2|, r = y - X beta, and
refits (HTP; Foucart, SIAM J. Numer. Anal. 2011), until the columns repeat
or a refit would not lower ||y - X beta||_2; it took 2-3 refits at
(720, 2560, 80).  From beta = 0 the first inner solves make almost every
coordinate nonzero and run in full mode; from the plain fit, which still
misses true columns at sigma = 0.01, the first inner solve still ran about
35 full-mode iterations, and from the refined fit about 3.  A round costs
one n x k least-squares solve (from the Cholesky factor of the k x k Gram
matrix of the columns, see :func:`~dantzig_adm.core.least_squares`; 0.4-0.7
ms at (720, 2560, 80), where LAPACK's SVD took 2-3 ms), one X beta (from the
k columns alone on a large X, see
:meth:`~dantzig_adm.core.DesignOperator.matvec`) and one X^T r, made with
the solve's design operator and inside its wall time; the last X^T r gives
G beta0 = X^T y - X^T r, so G beta0 costs no product.
It is beta = 0 when k = 0 (n < START_ROWS_PER_COLUMN) or when
max_j |x_j^T y| / d_j <= delta + tol, where beta = 0 passes the stopping
test.
The paper's zero start is ``beta0=np.zeros(p)``; it costs no product,
since X^T X 0 = 0.  A given nonzero beta0 costs one X beta0 and one X^T.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import DesignOperator, Instance, apply_gram, box_clamp, least_squares
from .subsolver import SubproblemObjective, solve_subproblem

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max_iter"
STATUS_NUMERICAL_FAILURE = "numerical_failure"

# Inner tolerance of outer iteration 0; the schedule halves it per iteration
# while it stays above the floor SUB_TOL_FACTOR * tol (see AdmConfig).
SUB_TOL_START = 2e-2
# The floor's fraction of tol, and of the least outer metric after the halving.
SUB_TOL_FACTOR = 0.1
# Rows of X per column of the default start's least-squares fits: each fits
# k = min(n // START_ROWS_PER_COLUMN, p) columns (see screened_start).
START_ROWS_PER_COLUMN = 9


@dataclass
class AdmConfig:
    """Outer-loop parameters: penalty mu, tolerance and outer iteration cap.

    The inner solver's parameters are the paper's, fixed as constants of
    :mod:`~dantzig_adm.subsolver`.  The inner solve of outer iteration k
    (counted from 0) runs to tol_sub_k = SUB_TOL_START * 2^-k while that
    lies above the floor f * tol, f = SUB_TOL_FACTOR, and to
    f * max(tol, m_k) after, where m_k is the least stopping metric of outer
    iterations 0..k (see :meth:`inner_tolerance`).  The early inner solves,
    whose answers the next outer steps move far, stop early; at tol = 1e-3
    the halving ends at k = 7 (1.6e-4), and from k = 8 on tol_sub_k follows
    the best outer residual so far down to the floor.  It never rises after
    the switch, although at the switch itself it may lie above the last
    halved value.  Neither shortcut works: the current metric in place of
    m_k diverged on 9 of 10 orthogonal acceptance rows, and a metric rule
    from k = 0 stopped the first inner solve at sigma = 0.01 after 5
    iterations (see the module docstring).
    """

    mu: float
    tol: float
    max_outer_iter: int = 10000

    def __post_init__(self):
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_outer_iter < 1:
            raise ValueError(f"max_outer_iter must be positive, got {self.max_outer_iter}")

    def inner_tolerance(self, iteration: int, metric: float) -> float:
        """tol_sub_k, the inner solve's tolerance at outer iteration ``iteration`` (from 0).

        ``metric`` is the least stopping metric of outer iterations 0..iteration,
        which :func:`solve` keeps.  It is SUB_TOL_START * 2^-k while that
        exceeds SUB_TOL_FACTOR * tol, and SUB_TOL_FACTOR * max(tol, metric) after.
        """
        halved = math.ldexp(SUB_TOL_START, -iteration)
        if halved > SUB_TOL_FACTOR * self.tol:
            return halved
        return SUB_TOL_FACTOR * max(self.tol, metric)


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
    """Counters and histories of one solve, in benchmark-table units.

    ``stopping_metric_history`` has one entry per stopping test, the first
    at the start point, and ``inner_iteration_history`` one per outer
    iteration: the iterations of its inner solve, whose tol_sub
    ``inner_tolerance_history`` holds (see :class:`AdmConfig`).
    ``certified_inner_solves``
    counts the inner solves that started on a working set certified by the
    previous inner result, and ``refreshes`` the inner solves whose
    certificate failed; each such failure cost one dense X^T and moved its
    inner solve to full mode.  ``start_support`` is the number of nonzeros
    of the start beta0, given or screened, and ``start_rounds`` the
    least-squares refits the screened start made after its first fit (0 for
    a given beta0; see :func:`screened_start`).
    """

    outer_iterations: int
    inner_iteration_total: int
    stopping_metric_history: list[float]
    dual_objective_history: list[float]
    wall_time: float
    status: str
    subsolver_failures: int = 0
    certified_inner_solves: int = 0
    refreshes: int = 0
    inner_iteration_history: list[int] = field(default_factory=list)
    start_support: int = 0
    start_rounds: int = 0
    inner_tolerance_history: list[float] = field(default_factory=list)


def screened_start(inst: Instance, columns: int | None = None, tol: float = 0.0) -> np.ndarray:
    """The default beta0: a least-squares fit on screened columns, refined by HTP.

    With k = min(n // START_ROWS_PER_COLUMN, p), or ``columns`` when given
    (as scripts/start_sweep.py compares), round 0 is
    :func:`~dantzig_adm.core.least_squares` on the support T of the k
    columns of largest |x_j^T y| / d_j, read off the cached X^T y, and zero
    off them.  Each later round is one step of hard-thresholding pursuit
    (Foucart, SIAM J. Numer. Anal. 2011): with r = y - X beta, T' holds the
    k columns of largest |beta_j + x_j^T r / d_j^2|.  The loop stops when
    T' = T, and otherwise refits on T'; when the refit does not lower
    ||y - X beta||_2 it keeps beta and stops.  Both rankings break ties
    toward the lower index and sort T ascending, so the columns chosen among
    duplicates do not depend on the sort algorithm.  A strictly falling
    residual cannot return to a support (each fit has the least residual on
    its support), so the loop ends without a cap; without the residual rule
    the steps can cycle (they did at (128, 2048), seed 3).  X beta is
    ``design.matvec`` (from the k columns alone on a large X) and X^T r is
    ``design.rmatvec``; since X beta0 = y - r, the last X^T r gives
    G beta0 = X^T y - X^T r (G = X^T X), and no further product is made.
    :func:`solve` uses that G beta0 and the operator of the solve; called
    alone, the start makes its products with an operator of its own.  At
    (720, 2560, 80) a fit took 0.4-0.7 ms and the whole start about 5.5 ms
    (the median over held-out seeds; 11.5 ms with LAPACK's SVD fits).

    It is beta = 0 with G beta0 = 0 when k = 0 or when max_j |x_j^T y| / d_j
    <= delta + tol.  At tol = 0 beta = 0 is then feasible, and so optimal;
    :func:`solve` passes its tol, at which beta = 0 with lambda = 0 passes
    the stopping test (its metric is the primal excess).  So a delta that
    equals the largest score up to rounding, where beta = 0 is optimal, does
    not start a solve from a fit far from it.  When k = p no other support
    exists: the round-0 fit is returned with G beta0 = X^T (X beta0).
    """
    return _screened_start(inst, DesignOperator(inst.X), columns, tol)[0]


def _top(scores: np.ndarray, k: int) -> np.ndarray:
    """The k indices of largest score, ties to the lower index, in ascending order."""
    return np.sort(np.argsort(-scores, kind="stable")[:k])


def _screened_start(
    inst: Instance, design: DesignOperator, columns: int | None = None, tol: float = 0.0
) -> tuple[np.ndarray, np.ndarray, int]:
    """(beta0, G beta0, refits) of :func:`screened_start`, G = X^T X.

    Its products are made with ``design``, the solve's operator.
    """
    k = min(inst.n // START_ROWS_PER_COLUMN if columns is None else columns, inst.p)
    scores = np.abs(inst.xty) / inst.d
    if k == 0 or not scores.max() > inst.delta + tol:
        return np.zeros(inst.p), np.zeros(inst.p), 0
    top = _top(scores, k)
    beta = least_squares(inst.X, inst.y, top)
    if k == inst.p:
        return beta, design.rmatvec(design.matvec(beta)), 0
    residual = inst.y - design.matvec(beta)
    refits = 0
    while True:
        xtr = design.rmatvec(residual)
        candidate = _top(np.abs(beta + xtr / inst.d**2), k)
        if np.array_equal(candidate, top):
            break
        trial = least_squares(inst.X, inst.y, candidate)
        refits += 1
        trial_residual = inst.y - design.matvec(trial)
        if not np.linalg.norm(trial_residual) < np.linalg.norm(residual):
            break
        beta, top, residual = trial, candidate, trial_residual
    return beta, inst.xty - xtr, refits


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


def _stopping_ratios(
    beta: np.ndarray, lam: np.ndarray, terms: tuple[float, float, float, float]
) -> tuple[float, float, float]:
    """The stopping test's ratios from the terms of :func:`_criterion_terms`.

    Returns the relative duality gap | ||beta||_1 - d(lambda) | / max(||beta||_1, 1)
    and the primal and dual excesses over max(||beta||_2, 1) and
    max(||lambda||_2, 1).  The two excess ratios may be negative.
    """
    primal, dual, beta_l1, dual_value = terms
    return (
        abs(beta_l1 - dual_value) / max(beta_l1, 1.0),
        primal / max(float(np.linalg.norm(beta)), 1.0),
        dual / max(float(np.linalg.norm(lam)), 1.0),
    )


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
    """Run the alternating direction method from (beta0, lambda0).

    beta0 defaults to :func:`screened_start`, formed inside the timed solve
    with the solve's design operator, and lambda0 to zeros;
    ``beta0=np.zeros(p)`` gives the paper's zero start.

    Per iteration: closed-form z update, inner solve for beta warm-started at
    the previous beta and stopped at the iteration's tol_sub (see
    :class:`AdmConfig`; it reads the least stopping metric so far), multiplier step, then the stopping test.  Its metric
    is the max of the ratios of :func:`_stopping_ratios`: the relative
    duality gap | ||beta||_1 - d(lambda) | / max(||beta||_1, 1) and the
    primal and dual excesses of :func:`_criterion_terms` over
    max(||beta||_2, 1) and max(||lambda||_2, 1).  The two excess ratios may
    be negative; the gap is not, so neither is the metric.
    The dual objective d is used as-is even when lambda is dual-infeasible.
    The metric at (beta0, lambda0) is the first entry of the history.  X^T X beta
    and X^T X lambda come from the inner solver's residual and gradient (see
    the module docstring for the identities and the cost per iteration), and
    each inner result but a best earlier iterate is the next inner solve's
    reference.  The products go through one DesignOperator built here and
    dropped on return.
    A subsolver that misses its tolerance contributes its best iterate and is
    counted in the report.  Non-finite values end the run with status numerical_failure,
    returning the state at failure.
    """
    p = inst.p
    beta = None if beta0 is None else np.array(beta0, dtype=np.float64)
    lam = np.zeros(p) if lambda0 is None else np.array(lambda0, dtype=np.float64)
    if (beta is not None and beta.shape != (p,)) or lam.shape != (p,):
        raise ValueError(f"beta0 and lambda0 must have length {p}")

    t_start = time.perf_counter()
    design = DesignOperator(inst.X)
    start_rounds = 0
    if beta is None:
        beta, gram_beta, start_rounds = _screened_start(inst, design, tol=config.tol)
    else:  # a zero start needs no product: X^T X 0 = 0
        gram_beta = apply_gram(inst, beta) if beta.any() else np.zeros(p)
    start_support = int(np.count_nonzero(beta))
    gram_lam = apply_gram(inst, lam) if lam.any() else np.zeros(p)
    metric_history: list[float] = []
    dual_history: list[float] = []
    inner_history: list[int] = []
    tolerance_history: list[float] = []
    best_metric = math.inf  # the least stopping metric so far
    iteration = inner_total = sub_failures = certified = refreshes = 0
    reference = None  # the last inner solve's final result

    while True:
        terms = _criterion_terms(inst, beta, lam, gram_beta, gram_lam)
        metric = max(_stopping_ratios(beta, lam, terms))
        metric_history.append(metric)
        best_metric = min(best_metric, metric)
        dual_history.append(terms[3])
        if callback is not None and iteration > 0:
            copies = (z.copy(), beta.copy(), lam.copy(), lam_prev.copy())
            callback(OuterIterationRecord(iteration, *copies, metric))
        if metric <= config.tol:
            status = STATUS_CONVERGED
            break
        if iteration == config.max_outer_iter:
            status = STATUS_MAX_ITER
            break

        lam_prev = lam
        z = update_z(inst, lam, config.mu, gram_beta)
        objective = SubproblemObjective(
            inst, z, lam, config.mu, gram_u0=gram_beta, design=design, reference=reference
        )
        tol_sub = config.inner_tolerance(iteration, best_metric)
        result = solve_subproblem(objective, beta, tol_sub)
        tolerance_history.append(tol_sub)
        inner_history.append(result.iterations)
        inner_total += result.iterations
        certified += result.certified
        refreshes += result.refreshes
        if not result.succeeded:
            sub_failures += 1
        beta = result.u
        reference = None if result.residual is None else result
        if result.residual is None:  # the best earlier iterate: nothing held for it
            gram_beta = apply_gram(inst, beta)
        else:  # G beta = r + c; the multiplier step is mu r, so X^T X lambda = g
            gram_beta = result.residual + objective.c
        lam = update_lambda(inst, lam, z, config.mu, gram_beta)
        gram_lam = apply_gram(inst, lam) if result.residual is None else result.gradient
        iteration += 1
        if not all(np.isfinite(v).all() for v in (beta, lam, z)):
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
        certified_inner_solves=certified,
        refreshes=refreshes,
        inner_iteration_history=inner_history,
        start_support=start_support,
        start_rounds=start_rounds,
        inner_tolerance_history=tolerance_history,
    )
    return beta, lam, report
