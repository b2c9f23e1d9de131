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
lets the two feed each other: at the mu rule before its factor 4 (see
:func:`~dantzig_adm.datagen.mu_rule`), on 9 of 10 orthogonal acceptance
rows the metric grew to 4-34, the inner solves made almost no iterations,
and the solve ran to max_outer_iter.  The final stopping test does not
depend on tol_sub.

The outer step is read off the inner solver.  With G = X^T X and
c = X^T y + z - lambda/mu, the inner solver returns beta together with the
residual r = G beta - c and the gradient g = mu G r it already holds.  So
G beta = r + c, the multiplier step lambda + mu (G beta - X^T y - z) equals
mu r, and X^T X lambda_next = g.  G beta serves the multiplier step, the
primal stopping term and the next z update, which clamps
w = G beta - X^T y + lambda/mu to z and hands the next inner solve its
residual r0 = w - z at the warm start beta (:func:`update_z`); g serves the
dual stopping term; and the dual objective uses the instance's X^T y.

The z clamp, the multiplier step and the stopping test therefore make no
product with X.  An outer iteration costs what its inner solve costs (see
:mod:`~dantzig_adm.subsolver`): two products with G = X^T X per inner
iteration, plus one per inner solve.  When p < n they are p x p products
with the formed G, and none with X; otherwise each is X^T (X v), two
products with X.  An inner solve that misses its tolerance returns its
best iterate with its residual and gradient too, so the loop makes no
product for it either.  One design operator serves every inner solve of
the loop, so its G is formed at most once (about p^2 n / 2
multiply-adds).

:func:`solve` runs this loop, :func:`_adm`, on the Dantzig selector of
X[:, W] for a growing set of columns W, with its constraints on W only.
Its answer, padded with zeros, solves the full problem when the
constraints off W hold for it too: this is column and constraint generation
for the LP (Dantzig & Wolfe, Oper. Res. 1960), as in the working-set
method of Johnson & Guestrin (ICML 2015).  Each round runs on the operator
that the solve's design operator makes for W
(:meth:`~dantzig_adm.core.DesignOperator.restricted`), which copies into
the buffer it keeps only the columns that joined W since the last round
(W keeps the order its columns joined, so they are appended), and reads d
and X^T y on W off the instance, so the loop's every product is with that
n x |W| block; and one fused pass over all of X checks the constraints
off W and gives X^T X_W b_W and X^T X_W l_W for the next round's warm
start.  The start's least-squares fits copy into the same buffer.  At
(720, 2560, 80) the 30 acceptance rows (unit columns at sigma 0.05 and
0.01, orthogonal rows at sigma 0.05, seeds 0-9) took 2-5 rounds and ended
with 92-274 columns in W.  While |W| < n a round's inner solves make their
products with the |W| x |W| Gram matrix X_W^T X_W of its block, as every
one of their 122 rounds did, and every one of 26 at (1440, 5120, 160),
seeds 0-2.  The first such round runs on the operator of the start's last
fit, block and G_W, or forms one when W holds other columns (see the last
paragraph); each later one appends to the last round's G_W the products
with its new columns alone (:func:`~dantzig_adm.core._kernel`, the one
routine that forms a G), and a rerun of the same W keeps the last round's
block and G_W.  A round whose operator forms its G, and that G, run on
one BLAS thread (:func:`~dantzig_adm.core.one_blas_thread`): a product
with a formed G sums in another order on two threads than on one, and the
pin keeps a solve's bytes the same at every thread count.  The rounds
carry on from each other: the inner tolerance schedule counts the outer
iterations of the whole solve, so a round does not reopen the loose early
inner solves, and only the running least metric, a metric on W, starts
afresh with each round.

A round on W need not reach tol, since its check grows W anyway: once it
has made ROUND_FLOOR_ITERATIONS outer iterations it stops at the level
max(tol, ROUND_LEVEL_FRACTION * m), m the full problem's metric at the last
check (the start's for the first round), as working-set methods solve each
subproblem to a fraction of the full gap (Blitz; Johnson & Guestrin, ICML
2015).  A round on all of X runs to tol.  The floor keeps short rounds
whole: stopping one early buys one more round, a pass over X and a
restart, and pays only in a round's slow linear tail.  Each check adds
every violator to W, and a check that finds none reruns the same W at
the level of its new m, below the last round's.  A solve is still
converged only when the full problem's metric is at most tol.  Over
held-out seeds 100-129 the outer iterations per solve, summed over rounds,
went 91.6 -> 54.2 on unit rows at sigma 0.05 (acceptance rows: 98.5 ->
56.3, where the loop on all of X makes 47.8) and 362.8 -> 205.4 on
orthogonal rows, where 50% and 78% of the rounds stopped at their level;
at sigma 0.01 no round made the floor, and they went 16.9 -> 16.5.  Each outer iteration costs products with about a
twentieth of X.  A round also ends when the cap is reached, or when the
metric has not halved for STALL_ITERATIONS outer iterations: at a tol near
rounding the metric on W can hover above its level while columns off W
still violate, and the check then adds them.  The column buffer holds at
most p // 2 columns: W becomes all of X past that, and the round then
runs on X itself, with each product with G as X^T (X v) when p >= n.

The default start is not the paper's beta = 0 but a screened least-squares
fit refined by hard-thresholding pursuit (:func:`_screened_start`).  Round 0
fits y by least squares, as the Gauss-Dantzig step does (Candes & Tao, Ann.
Statist. 2007), on the k = min(n // START_ROWS_PER_COLUMN, p) columns of
largest |x_j^T y| / d_j, ranked from the instance's X^T y as sure
independence screening does (Fan & Lv, JRSS-B 2008).  Each later round
moves the k columns to those of largest |beta_j + x_j^T r / d_j^2|,
r = y - X beta, and refits (HTP; Foucart, SIAM J. Numer. Anal. 2011),
until the columns repeat or a refit would not lower ||y - X beta||_2; it
took 2-3 refits at (720, 2560, 80).  From beta = 0 the first inner solves
make almost every coordinate nonzero; from the plain fit, which still
misses true columns at sigma = 0.01, the first inner solve of the loop on
all of X still ran about 35 iterations, and from the refined fit about 3.  A round costs one n x k
least-squares solve (from the Cholesky factor of the k x k Gram
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
At (720, 2560, 80) the zero start's first check takes W past p // 2, so
its one round runs on all of X with each product with G as X^T (X v): over
seeds 100-102 of the three rows such a solve took 0.3-1.1 s (one BLAS
thread), where the default start's took 22-34 ms in the median.

A solve makes no X^T y product: the instance forms X^T y with d in its one
pass over X (:class:`~dantzig_adm.core.Instance`).  So the default start
reads all of X once per fit it keeps, for its X^T r (3.0-3.1 times at
(720, 2560, 80)), each check of a round on W reads it once in its fused
pass, and no other product reads all of X.  From a kept last fit and
lambda0 = 0, the first round's W holds that fit's columns, and it runs on
the operator the fit ran on, with its block and G_W
(:meth:`~dantzig_adm.core.DesignOperator.restricted`); so a solve copies
a block and forms a G_W afresh only after a rejected last refit or from a
given start.
"""

from __future__ import annotations

import math
import numbers
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

# apply_gram is imported only so that perfbench's TRACE_TARGETS can trace it here
from .core import (DesignOperator, Instance, _as_vector, apply_gram, box_clamp, least_squares,
                   one_blas_thread)
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
# k = min(n // START_ROWS_PER_COLUMN, p) columns (see _screened_start).
START_ROWS_PER_COLUMN = 9
# Column generation (see solve): a column off W whose excess ratio exceeds
# VIOLATION_FRACTION * tol violates, and each check adds every violator to W.
VIOLATION_FRACTION = 0.5
# A round on W ends, and is checked off W, once its stopping metric has not
# halved for this many outer iterations (see solve).  At (720, 2560, 80),
# seeds 0-9 and 100-129 with each design's tol rule, no round came near: the
# longest such stretch was 303 outer iterations on orthogonal rows, 33 and 7
# on unit rows at sigma 0.05 and 0.01.
STALL_ITERATIONS = 500
# A round on W stops at the level max(tol, ROUND_LEVEL_FRACTION * m), m the
# full problem's metric after the last check (the start's for round 1), once
# it has made ROUND_FLOOR_ITERATIONS outer iterations (see solve).  Its next
# check grows W anyway, so a round in its slow linear tail need not reach
# tol; a shorter round runs to tol, since stopping it early would buy one
# more round (a pass over X and a restart).
ROUND_LEVEL_FRACTION = 0.3
ROUND_FLOOR_ITERATIONS = 10


@dataclass
class AdmConfig:
    """Outer-loop parameters: penalty mu, tolerance and outer iteration cap.

    The inner solver's parameters are the paper's, fixed as constants of
    :mod:`~dantzig_adm.subsolver`.  The inner solve of outer iteration k
    (counted from 0 over all rounds of a solve) runs to
    tol_sub_k = SUB_TOL_START * 2^-k while that lies above the floor
    f * tol, f = SUB_TOL_FACTOR, and to f * max(tol, m_k) after, where m_k
    is the least stopping metric of the round so far, its start included
    (see :meth:`inner_tolerance`).  The early inner solves, whose answers
    the next outer steps move far, stop early; at tol = 1e-3 the halving
    ends at k = 7 (1.6e-4), and from k = 8 on tol_sub_k follows the best
    outer residual so far down to the floor.  Within a round it never rises
    after the switch, although at the switch itself it may lie above the
    last halved value; m_k starts afresh at each round's start metric, so
    tol_sub_k may rise when a round starts.  Neither shortcut works: the
    current metric in place of m_k diverged on 9 of 10 orthogonal
    acceptance rows at the mu rule before its factor 4, and a metric rule
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
        if not isinstance(self.max_outer_iter, numbers.Integral):
            raise ValueError(f"max_outer_iter must be an integer, got {self.max_outer_iter!r}")
        if self.max_outer_iter < 1:
            raise ValueError(f"max_outer_iter must be positive, got {self.max_outer_iter}")
        self.mu = float(self.mu)  # the loops take mu as it is held, unchecked

    def inner_tolerance(self, iteration: int, metric: float) -> float:
        """tol_sub_k, the inner solve's tolerance at outer iteration ``iteration`` (from 0).

        ``iteration`` counts the outer iterations of the whole solve, over
        all its rounds (see :func:`solve`).  ``metric`` is the least stopping
        metric so far of the round, which :func:`_adm` keeps from the round's
        start: a metric on the round's columns W only.  It is
        SUB_TOL_START * 2^-k while that exceeds SUB_TOL_FACTOR * tol, and
        SUB_TOL_FACTOR * max(tol, metric) after.
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
    columns: np.ndarray | None = None  # W of the round (see solve); None: all columns


@dataclass
class RunReport:
    """Counters and histories of one solve, in benchmark-table units.

    :func:`solve` makes the report at its start (:func:`_start`), and the
    ADM loop of every round, :func:`_adm`, writes into it.  After each outer
    iteration the loop appends that iteration's stopping metric and dual
    objective to ``stopping_metric_history`` and ``dual_objective_history``,
    and the iterations of its inner solve and that solve's tol_sub (see
    :class:`AdmConfig`) to ``inner_iteration_history`` and
    ``inner_tolerance_history``; it adds to ``outer_iterations``,
    ``inner_iteration_total``, ``subsolver_failures`` and ``rounds``, and
    sets ``status``.  The first two histories open with the start's entry,
    so they hold outer_iterations + 1 entries (outer_iterations after a
    numerical_failure, whose last iteration has no metric), and their last
    entry is the full problem's (see :func:`solve`).  ``start_support`` is
    the number of nonzeros of the start beta0, given or screened, and
    ``start_rounds`` the least-squares refits the screened start made after
    its first fit (0 for a given beta0; see :func:`_screened_start`).
    ``working_columns`` is |W| in the last round, ``round_levels`` each
    round's stopping level (tol, or ROUND_LEVEL_FRACTION * m above it; see
    :func:`solve`), ``round_columns`` each round's |W|, and ``wall_time``
    the whole solve's, start included.
    """

    outer_iterations: int = 0
    inner_iteration_total: int = 0
    stopping_metric_history: list[float] = field(default_factory=list)
    dual_objective_history: list[float] = field(default_factory=list)
    wall_time: float = 0.0
    status: str = STATUS_CONVERGED
    subsolver_failures: int = 0
    inner_iteration_history: list[int] = field(default_factory=list)
    start_support: int = 0
    start_rounds: int = 0
    inner_tolerance_history: list[float] = field(default_factory=list)
    rounds: int = 0
    working_columns: int = 0
    round_levels: list[float] = field(default_factory=list)
    round_columns: list[int] = field(default_factory=list)


def _top(scores: np.ndarray, k: int) -> np.ndarray:
    """The k indices of largest score, ties to the lower index, in ascending order.

    Every index whose score exceeds the k-th largest, found by np.partition,
    then the lowest indices that tie with it: the first k of a stable
    argsort of -scores, without the sort.
    """
    if k == 0:
        return np.arange(0)
    kth = np.partition(scores, scores.size - k)[scores.size - k]
    above = np.flatnonzero(scores > kth)
    ties = np.flatnonzero(scores == kth)[: k - above.size]
    return np.sort(np.concatenate((above, ties)))


def _screened_start(
    inst: Instance, design: DesignOperator, tol: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """(beta0, G beta0, refits): the default start, a least-squares fit on
    screened columns refined by HTP, with G beta0 (G = X^T X) and the refits
    after the first fit.

    With k = min(n // START_ROWS_PER_COLUMN, p), round 0 is
    :func:`~dantzig_adm.core.least_squares` on the support T of the k
    columns of largest |x_j^T y| / d_j, read off the instance's X^T y, and zero
    off them.  Each later round is one step of hard-thresholding pursuit
    (Foucart, SIAM J. Numer. Anal. 2011): with r = y - X beta, T' holds the
    k columns of largest |beta_j + x_j^T r / d_j^2|.  The loop stops when
    T' = T, and otherwise refits on T'; when the refit does not lower
    ||y - X beta||_2 it keeps beta and stops.  Both rankings break ties
    toward the lower index and sort T ascending, so the columns chosen among
    duplicates do not depend on the sort algorithm.  A strictly falling
    residual cannot return to a support (each fit has the least residual on
    its support), so the loop ends without a cap; without the residual rule
    the steps can cycle (they did at (128, 2048), seed 3).  The fits copy
    their columns into the buffer of ``design``
    (:meth:`~dantzig_adm.core.DesignOperator.take`); X beta is
    ``design.matvec`` (from the k columns alone on a large X) and X^T r is
    ``design.rmatvec``, with the solve's operator.  Since X beta0 = y - r, the last X^T r gives
    G beta0 = X^T y - X^T r, and no further product is made.  At
    (720, 2560, 80) a fit took 0.4-0.7 ms and the whole start about 5.5 ms
    (the median over held-out seeds; 11.5 ms with LAPACK's SVD fits).

    It is beta = 0 with G beta0 = 0 when k = 0 or when max_j |x_j^T y| / d_j
    <= delta + tol.  At tol = 0 beta = 0 is then feasible, and so optimal;
    :func:`solve` passes its tol, at which beta = 0 with lambda = 0 passes
    the stopping test (its metric is the primal excess).  So a delta that
    equals the largest score up to rounding, where beta = 0 is optimal, does
    not start a solve from a fit far from it.  When k = p no other support
    exists: T' = T after the round-0 fit, and that fit is returned with
    the same two products.
    """
    k = min(inst.n // START_ROWS_PER_COLUMN, inst.p)
    scores = np.abs(inst.xty) / inst.d
    if k == 0 or not scores.max() > inst.delta + tol:
        return np.zeros(inst.p), np.zeros(inst.p), 0
    top = _top(scores, k)
    beta = least_squares(design, inst.y, top)
    residual = inst.y - design.matvec(beta)
    refits, d2 = 0, inst.d**2
    while True:
        xtr = design.rmatvec(residual)
        candidate = _top(np.abs(beta + xtr / d2), k)
        if np.array_equal(candidate, top):
            break
        trial = least_squares(design, inst.y, candidate)
        refits += 1
        trial_residual = inst.y - design.matvec(trial)
        if not np.linalg.norm(trial_residual) < np.linalg.norm(residual):
            break
        beta, top, residual = trial, candidate, trial_residual
    return beta, inst.xty - xtr, refits


def update_z(
    inst: Instance, gram_beta: np.ndarray, scaled: np.ndarray, bound: np.ndarray, lower: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(z, r0): the exact minimizer z of the augmented Lagrangian over the box
    ||D^-1 z||_inf <= delta, and the next inner problem's residual at beta.

    ``gram_beta`` is X^T X beta at the current beta, ``scaled`` is
    lambda/mu, and ``bound`` and ``lower`` are the box's delta * d and
    -bound.  z clamps w = X^T X beta - X^T y + lambda/mu to the box, and
    r0 = w - z is X^T X beta - c with c = X^T y + z - lambda/mu, the
    residual of the inner problem warm-started at beta; it is exactly 0
    wherever the clamp left z = w.
    """
    w = gram_beta - inst.xty + scaled
    z = box_clamp(w, bound, lower)
    return z, w - z


def _criterion_terms(
    inst: Instance,
    beta: np.ndarray,
    lam: np.ndarray,
    gram_beta: np.ndarray,
    gram_lam: np.ndarray,
) -> tuple[float, float, float, float, float, float, float, float]:
    """The stopping and certificate terms at (beta, lambda).

    With G = X^T X, ``gram_beta`` = G beta and ``gram_lam`` = G lambda,
    returns (metric, dual objective, primal, dual, gap, primal ratio, dual
    ratio, gap ratio):

    - the primal excess max_j |(G beta - X^T y)_j| / d_j - delta,
    - the dual excess ||G lambda||_inf - 1,
    - the gap | ||beta||_1 - d(lambda) |, with the dual objective
      d(lambda) = -y^T X lambda - delta * sum_j d_j |lambda_j| from the
      instance's X^T y,
    - each over its scale, max(||beta||_2, 1), max(||lambda||_2, 1) and
      max(||beta||_1, 1), and the metric, the largest of the three ratios.

    Both excesses are negative when their constraint holds strictly, and so
    are their ratios; the gap is not, so neither is the metric.  The metric
    is max(gap, primal, dual) over the ratios in that order, so a NaN ratio
    gives what Python's max gives it there.  A norm is sqrt(v . v), as
    np.linalg.norm forms it for a vector.  The stopping test of
    :func:`solve` reads the metric, and
    :func:`~dantzig_adm.evaluation.feasibility_report` takes the positive
    parts of the terms and ratios; no product is made here.
    """
    primal = float(np.abs((gram_beta - inst.xty) / inst.d).max()) - inst.delta
    dual = float(np.abs(gram_lam).max()) - 1.0
    beta_l1 = float(np.add.reduce(np.abs(beta)))
    dual_value = -float(inst.xty @ lam) - inst.delta * float(inst.d @ np.abs(lam))
    gap = abs(beta_l1 - dual_value)
    primal_ratio = primal / max(math.sqrt(float(beta @ beta)), 1.0)
    dual_ratio = dual / max(math.sqrt(float(lam @ lam)), 1.0)
    gap_ratio = gap / max(beta_l1, 1.0)
    metric = max(gap_ratio, primal_ratio, dual_ratio)
    return metric, dual_value, primal, dual, gap, primal_ratio, dual_ratio, gap_ratio


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
    return lam + mu * (gram_beta - inst.xty - z_next)


def solve(
    inst: Instance,
    config: AdmConfig,
    beta0: np.ndarray | None = None,
    lambda0: np.ndarray | None = None,
    callback=None,
) -> tuple[np.ndarray, np.ndarray, RunReport]:
    """Solve the Dantzig selector on a growing set of columns W, from (beta0, lambda0).

    beta0 defaults to :func:`_screened_start`, formed inside the timed solve
    with the solve's design operator, and lambda0 to zeros;
    ``beta0=np.zeros(p)`` gives the paper's zero start.  A given beta0 or
    lambda0 must have length p and finite entries (ValueError otherwise).
    :func:`_start` forms the start and the solve's one :class:`RunReport`,
    into which every round's :func:`_adm` records its outer iterations.

    The metric at (beta0, lambda0) is the first entry of the history, from
    X^T X beta0 and X^T X lambda0 on all of X; when it is at most tol the
    solve returns with 0 rounds.  Otherwise W starts as
    supp(beta0) + supp(lambda0), or, when both are zero, as the columns
    chosen by the growth rule below from those products.  Each round runs
    :func:`_adm` on the Dantzig selector of X[:, W] (its constraints on W
    only; :meth:`~dantzig_adm.core.Instance.restricted`) from the previous
    answer, with the caller's mu and tol and what is left of
    ``max_outer_iter`` over all rounds; its inner tolerance schedule goes on
    from the outer iterations of the rounds before it, and its block and
    G_W are the last round's with the new columns appended (see the module
    docstring).  A round on W stops at its level
    max(tol, ROUND_LEVEL_FRACTION * m), m the full problem's metric at the
    last check (the start's for the first round), once it has made
    ROUND_FLOOR_ITERATIONS outer iterations, and at tol before that; it
    also ends when its metric has not halved for STALL_ITERATIONS outer
    iterations.  Its answer (b_W, l_W), padded with
    zeros, is then checked off W: one fused pass over X gives X^T X_W b_W
    and X^T X_W l_W, and each column j off W has the excess ratio
    max(|x_j^T (X_W b_W - y)| / d_j - delta, |x_j^T X_W l_W| - 1), each term
    over the norm that scales it in the stopping test.  The gap and both
    norms involve W only, so the full problem's metric is the larger of the
    round's last metric and the largest of these ratios.  When that is at
    most tol (so the round converged), the solve has converged.  Otherwise
    every j off W whose ratio exceeds VIOLATION_FRACTION * tol is a
    violator, and the violators join W at its end, ascending among
    themselves; W becomes all columns once it would hold more than p // 2
    of them, and the round then runs on X itself to tol and needs no
    check.  A round that stopped at its level or stalled, with no violator,
    runs again on the same W at the level of the new m, which is lower,
    with the last round's block and operator.
    ``report.round_levels`` holds each round's level.

    ``stopping_metric_history`` holds the start's metric, then each round's
    metrics after its outer iterations, and after a round on W its last
    entry, or the previous round's when the round made no iteration, is
    replaced by the full problem's metric: the larger of the round's last
    metric, which :func:`_adm` returns, and the check's largest ratio.  So
    its length is outer_iterations + 1, and its last entry is the full
    problem's metric.  The dual objective does not
    depend on W (lambda is zero off it), and ``dual_objective_history``
    follows the same layout.  ``callback`` receives one
    :class:`OuterIterationRecord` per outer iteration of every round:
    ``iteration`` counts over all rounds, z, beta, lam and lam_prev are the
    round's, padded with zeros off W, ``metric`` is the round's stopping
    metric there (on W only), and ``columns`` is W, or None when the round
    runs on all columns.

    When no outer iteration is left and the full problem's metric is above
    tol, the solve returns max_iter; so status converged means that the
    last entry of the history is at most tol.  A round with non-finite
    values returns numerical_failure.  Each returns the padded answer of
    that round.  The products go through one
    DesignOperator of X, and each round's through the one of X[:, W] that it
    makes (:meth:`~dantzig_adm.core.DesignOperator.restricted`, which keeps
    it for a rerun of the same W), dropped on return.  A round whose
    operator forms its G runs on one BLAS thread.
    """
    t_start = time.perf_counter()
    design = DesignOperator(inst.X)
    beta, lam, gram_beta, gram_lam, report = _start(inst, config, design, beta0, lambda0)
    p = inst.p
    columns = _all_past_half(np.flatnonzero((beta != 0) | (lam != 0)), p)
    if report.stopping_metric_history[0] <= config.tol:
        columns = None
    elif not columns.size:
        columns = _grow(columns, _excess(inst, beta, lam, gram_beta, gram_lam), config.tol, p)

    full = report.stopping_metric_history[0]  # the full problem's metric at the last check
    while columns is not None:
        sub_design = design.restricted(columns)
        whole = sub_design is design
        sub = inst if whole else inst.restricted(columns, sub_design.X)
        start = (v[columns] for v in (beta, lam, gram_beta, gram_lam))
        record = callback if callback is None or whole else _padded(callback, columns, p)
        patience = math.inf if whole else STALL_ITERATIONS
        level = config.tol if whole else max(config.tol, ROUND_LEVEL_FRACTION * full)
        with one_blas_thread() if sub_design.forms_gram else nullcontext():
            b, lam_w, metric = _adm(sub, config, sub_design, *start, report, record, patience,
                                    level)
        report.working_columns = columns.size
        beta, lam = _expand(b, columns, p), _expand(lam_w, columns, p)
        if whole:
            break
        # X^T X_W b_W and X^T X_W l_W on all columns, for the check and the next round
        gram_beta, gram_lam = design.rmatvec_pair(sub_design.matvec(b), sub_design.matvec(lam_w))
        excess = _excess(inst, beta, lam, gram_beta, gram_lam)
        excess[columns] = -np.inf
        report.stopping_metric_history[-1] = full = max(metric, float(excess.max()))
        if report.status == STATUS_NUMERICAL_FAILURE or full <= config.tol:
            break
        if report.outer_iterations == config.max_outer_iter:
            report.status = STATUS_MAX_ITER
            break
        columns = _grow(columns, excess, config.tol, p)

    report.wall_time = time.perf_counter() - t_start
    return beta, lam, report


def _start(
    inst: Instance,
    config: AdmConfig,
    design: DesignOperator,
    beta0: np.ndarray | None,
    lambda0: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, RunReport]:
    """(beta0, lambda0, X^T X beta0, X^T X lambda0, report) at the start of a solve.

    Checks beta0 and lambda0 and fills in their defaults as :func:`solve`
    describes; the screened start makes its products with ``design`` and
    its fits in its buffer.  A zero vector's Gram product costs nothing
    (X^T X 0 = 0), any other one X v and one X^T w through ``design``.  The
    report holds the start's metric and dual objective as the first entries
    of its histories and the start's fields; the rest keep their zero
    defaults, status converged among them.
    """
    p = inst.p
    # copies: a solve that passes at its start returns them
    beta = None if beta0 is None else _as_vector(beta0, p, "beta0").copy()
    lam = np.zeros(p) if lambda0 is None else _as_vector(lambda0, p, "lambda0").copy()
    for name, v in (("beta0", beta), ("lambda0", lam)):
        if v is not None and not np.isfinite(v).all():
            raise ValueError(f"{name} must be finite")
    start_rounds = 0
    if beta is None:
        beta, gram_beta, start_rounds = _screened_start(inst, design, config.tol)
    else:
        gram_beta = design.rmatvec(design.matvec(beta)) if beta.any() else np.zeros(p)
    gram_lam = design.rmatvec(design.matvec(lam)) if lam.any() else np.zeros(p)
    metric, dual_value, *_ = _criterion_terms(inst, beta, lam, gram_beta, gram_lam)
    report = RunReport(
        stopping_metric_history=[metric],
        dual_objective_history=[dual_value],
        start_support=int(np.count_nonzero(beta)),
        start_rounds=start_rounds,
    )
    return beta, lam, gram_beta, gram_lam, report


def _excess(
    inst: Instance, beta: np.ndarray, lam: np.ndarray, gram_beta: np.ndarray, gram_lam: np.ndarray
) -> np.ndarray:
    """Per column j, the larger of its primal and dual excess ratios at (beta, lambda).

    (|(G beta - X^T y)_j| / d_j - delta) / max(||beta||_2, 1) and
    (|(G lambda)_j| - 1) / max(||lambda||_2, 1), G = X^T X: the terms of
    :func:`_criterion_terms` column by column, scaled as it scales their
    maxima.  A new array.
    """
    primal = np.abs(gram_beta - inst.xty) / inst.d - inst.delta
    primal /= max(float(np.linalg.norm(beta)), 1.0)
    dual = np.abs(gram_lam) - 1.0
    dual /= max(float(np.linalg.norm(lam)), 1.0)
    return np.maximum(primal, dual)


def _grow(columns: np.ndarray, excess: np.ndarray, tol: float, p: int) -> np.ndarray:
    """A new W: W with every violator appended, ascending among themselves.

    ``excess`` is -inf on W.  A violator's excess exceeds VIOLATION_FRACTION
    * tol.  W keeps the order its columns joined, so the next round's block
    and G_W append to the last round's (see
    :meth:`~dantzig_adm.core.DesignOperator.restricted`), and with no
    violator it holds the same columns in the same order.
    """
    violators = np.flatnonzero(excess > VIOLATION_FRACTION * tol)
    return _all_past_half(np.concatenate((columns, violators)), p)


def _all_past_half(columns: np.ndarray, p: int) -> np.ndarray:
    """``columns``, or all p columns when it holds more than p // 2.

    A round on all columns runs on X itself, with no copy and no check, so
    no copy of columns exceeds half of X.
    """
    return np.arange(p) if 2 * columns.size > p else columns


def _expand(v: np.ndarray, columns: np.ndarray, p: int) -> np.ndarray:
    """A new length-p vector holding v on ``columns`` and zeros elsewhere."""
    out = np.zeros(p)
    out[columns] = v
    return out


def _padded(callback, columns: np.ndarray, p: int):
    """``callback`` fed the records of a round on W = ``columns`` padded to length p."""

    def padded(rec: OuterIterationRecord) -> None:
        vectors = (_expand(v, columns, p) for v in (rec.z, rec.beta, rec.lam, rec.lam_prev))
        callback(OuterIterationRecord(rec.iteration, *vectors, rec.metric, columns))

    return padded


def _adm(
    inst: Instance,
    config: AdmConfig,
    design: DesignOperator,
    beta: np.ndarray,
    lam: np.ndarray,
    gram_beta: np.ndarray,
    gram_lam: np.ndarray,
    report: RunReport,
    callback,
    patience: float,
    level: float,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Run the alternating direction method on ``inst`` from (beta, lam), into ``report``.

    ``gram_beta`` and ``gram_lam`` are X^T X beta and X^T X lambda, and
    ``design`` makes every product with X.  ``report`` is the solve's
    (:class:`RunReport`): the run counts one round there, appends its
    ``level`` (at least tol) to ``round_levels`` and the columns of ``inst``
    to ``round_columns``, records each outer iteration after it ends, and
    sets the status.  Per iteration: closed-form z update, inner solve for
    beta warm-started at the previous beta and stopped at the iteration's
    tol_sub (see :class:`AdmConfig`; k is
    ``report.outer_iterations``, which counts the iterations of every round
    of the solve, and the least stopping metric so far is this run's, the
    start's included), multiplier step, then the stopping test.  Its metric
    is that of :func:`_criterion_terms`, the max of the relative duality gap
    | ||beta||_1 - d(lambda) | / max(||beta||_1, 1) and the primal and dual
    excesses over max(||beta||_2, 1) and max(||lambda||_2, 1).  The two
    excess ratios may be negative; the gap is not, so neither is the
    metric.  The dual objective d is used as-is even when lambda is
    dual-infeasible.  The run stops with status converged
    once the metric, at the start too, is at most tol, and with max_iter
    when ``report.outer_iterations`` reaches max_outer_iter, when the run
    has made ROUND_FLOOR_ITERATIONS outer iterations and its metric is at
    most ``level`` (an early stop, only when ``level`` exceeds tol), or when
    ``patience`` outer iterations in a row leave the metric above half of
    its value when it last halved (first, the start's): a stalled run.
    :func:`solve` tells the last two from the cap by the count.  X^T X beta
    and X^T X lambda come from the inner solver's residual and gradient (see
    the module docstring for the identities and the cost per iteration), so
    the loop makes no product of its own.  A subsolver that misses its tolerance
    contributes its best iterate, with its residual and gradient, and is
    counted in the report.  Non-finite values end the run with status
    numerical_failure, returning the state at failure, and that iteration
    records no metric.  ``callback``, when not None, gets one
    :class:`OuterIterationRecord` per recorded iteration, numbered by
    ``report.outer_iterations``, with ``columns`` None.  A run with neither
    an early stop nor a stall test takes ``patience`` inf and ``level`` tol.
    Returns (beta, lambda, the last metric computed).
    """
    metric = best_metric = _criterion_terms(inst, beta, lam, gram_beta, gram_lam)[0]
    # outer iterations since the metric fell below half of halved, its value when it
    # last did so (the start's at first): the round stalls at patience of them
    stalled, halved = 0, metric
    # the run stops at tol, and at level too once it has made ROUND_FLOOR_ITERATIONS
    early = report.outer_iterations + ROUND_FLOOR_ITERATIONS
    bound = inst.delta * inst.d  # the z update's box
    lower = -bound
    report.rounds += 1
    report.round_levels.append(level)
    report.round_columns.append(inst.p)
    while (metric > (config.tol if report.outer_iterations < early else level)
           and report.outer_iterations < config.max_outer_iter and stalled < patience):
        lam_prev = lam
        scaled = lam / config.mu
        z, r0 = update_z(inst, gram_beta, scaled, bound, lower)
        objective = SubproblemObjective(inst, z, lam, config.mu, r0, design, scaled)
        tol_sub = config.inner_tolerance(report.outer_iterations, best_metric)
        result = solve_subproblem(objective, beta, tol_sub)
        report.inner_tolerance_history.append(tol_sub)
        report.inner_iteration_history.append(result.iterations)
        report.inner_iteration_total += result.iterations
        report.subsolver_failures += not result.succeeded
        # G beta = r + c; the multiplier step is mu r, so X^T X lambda = g
        beta, gram_beta = result.u, result.residual + objective.c
        lam = update_lambda(inst, lam, z, config.mu, gram_beta)
        gram_lam = result.gradient
        report.outer_iterations += 1
        if not (np.isfinite(beta).all() and np.isfinite(lam).all() and np.isfinite(z).all()):
            report.status = STATUS_NUMERICAL_FAILURE
            return beta, lam, metric
        metric, dual_value, *_ = _criterion_terms(inst, beta, lam, gram_beta, gram_lam)
        stalled, halved = (0, metric) if metric < halved / 2 else (stalled + 1, halved)
        best_metric = min(best_metric, metric)
        report.stopping_metric_history.append(metric)
        report.dual_objective_history.append(dual_value)
        if callback is not None:
            copies = (z.copy(), beta.copy(), lam.copy(), lam_prev.copy())
            callback(OuterIterationRecord(report.outer_iterations, *copies, metric))
    report.status = STATUS_CONVERGED if metric <= config.tol else STATUS_MAX_ITER
    return beta, lam, metric
