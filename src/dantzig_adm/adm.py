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
product with X.  An outer iteration costs what its inner solve costs (see
:mod:`~dantzig_adm.subsolver`).  When n <= p that is one kernel product
and two products with X per inner iteration, plus three products with X
per inner solve.  When p < n the inner solve runs in the Gram space: two
p x p products with G = X^T X per inner iteration, plus one per inner
solve, and none with X.  When the inner solver returns its best earlier
iterate instead of its final one, G beta and X^T X lambda are formed
fresh, two more Gram products.  One design operator serves every inner
solve of the loop, so its kernel, the n x n K = X X^T or the p x p G, is
formed at most once (about min(n, p)^2 max(n, p) / 2 multiply-adds).

:func:`solve` runs this loop, :func:`_adm`, on the Dantzig selector of
X[:, W] for a growing set of columns W, with its constraints on W only.
Its answer, padded with zeros, solves the full problem when the
constraints off W hold for it too: this is column and constraint generation
for the LP (Dantzig & Wolfe, Oper. Res. 1960), as in the working-set
method of Johnson & Guestrin (ICML 2015).  Each round copies the columns of
W once into one kept buffer (:class:`~dantzig_adm.core.ColumnBlock`) and
reads d and X^T y on W off the instance, so the loop's every product is with
that n x |W| block; and one fused pass over all of X checks the
constraints off W and gives X^T X_W b_W and X^T X_W l_W for the next
round's warm start.  The start's least-squares fits copy into the same
buffer.  At (720, 2560, 80) the 30 acceptance rows (unit columns at
sigma 0.05 and 0.01, orthogonal rows at sigma 0.05, seeds 0-9) took 3-7
rounds and ended with 103-197 columns in W.  While |W| < n a round's inner
solves run in the Gram space of its block, on the |W| x |W| matrix
X_W^T X_W, formed once per round, and no n x n K is formed: none of their
146 rounds formed one, nor any of 36 at (1440, 5120, 160), seeds 0-2.
Each round restarts the inner tolerance schedule, so the outer iterations
summed over the rounds exceed those of the loop on all of X (unit sigma
0.05: 98.5 against 47.8 on average), but each costs products with about a
twentieth of X; a whole solve took about a third of the time.  The column
buffer holds at most p // 2 columns: W becomes all of X past that, and the
round then runs on X itself.

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
coordinate nonzero; from the plain fit, which still misses true columns at
sigma = 0.01, the first inner solve of the loop on all of X still ran about
35 iterations, and from the refined fit about 3.  A round costs one n x k
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
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .core import ColumnBlock, DesignOperator, Instance, apply_gram, box_clamp, least_squares
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
# Column generation (see solve): a column off W whose excess ratio exceeds
# VIOLATION_FRACTION * tol violates, and each round adds the
# max(GROW_MIN, |W| // GROW_SHARE) largest violators to W.
VIOLATION_FRACTION = 0.5
GROW_MIN = 20
GROW_SHARE = 4


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
        if not isinstance(self.max_outer_iter, numbers.Integral):
            raise ValueError(f"max_outer_iter must be an integer, got {self.max_outer_iter!r}")
        if self.max_outer_iter < 1:
            raise ValueError(f"max_outer_iter must be positive, got {self.max_outer_iter}")
        self.mu = float(self.mu)  # the loops take mu as it is held, unchecked

    def inner_tolerance(self, iteration: int, metric: float) -> float:
        """tol_sub_k, the inner solve's tolerance at outer iteration ``iteration`` (from 0).

        ``metric`` is the least stopping metric of outer iterations 0..iteration,
        which :func:`_adm` keeps; both count from the start of its round (0 is
        the round's start).  It is SUB_TOL_START * 2^-k while that exceeds
        SUB_TOL_FACTOR * tol, and SUB_TOL_FACTOR * max(tol, metric) after.
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
    its first fit (0 for a given beta0; see :func:`screened_start`).
    ``working_columns`` is |W| in the last round, and ``wall_time`` the
    whole solve's, start included.
    """

    outer_iterations: int
    inner_iteration_total: int
    stopping_metric_history: list[float]
    dual_objective_history: list[float]
    wall_time: float
    status: str
    subsolver_failures: int = 0
    inner_iteration_history: list[int] = field(default_factory=list)
    start_support: int = 0
    start_rounds: int = 0
    inner_tolerance_history: list[float] = field(default_factory=list)
    rounds: int = 0
    working_columns: int = 0


def screened_start(inst: Instance, tol: float = 0.0) -> np.ndarray:
    """The default beta0: a least-squares fit on screened columns, refined by HTP.

    With k = min(n // START_ROWS_PER_COLUMN, p), round 0 is
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
    return _screened_start(inst, DesignOperator(inst.X), tol)[0]


def _top(scores: np.ndarray, k: int) -> np.ndarray:
    """The k indices of largest score, ties to the lower index, in ascending order."""
    return np.sort(np.argsort(-scores, kind="stable")[:k])


def _screened_start(
    inst: Instance,
    design: DesignOperator,
    tol: float = 0.0,
    block: ColumnBlock | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """(beta0, G beta0, refits) of :func:`screened_start`, G = X^T X.

    Its products are made with ``design``, the solve's operator, and its
    fits copy their columns into ``block`` (a new one when None).
    """
    k = min(inst.n // START_ROWS_PER_COLUMN, inst.p)
    scores = np.abs(inst.xty) / inst.d
    if k == 0 or not scores.max() > inst.delta + tol:
        return np.zeros(inst.p), np.zeros(inst.p), 0
    top = _top(scores, k)
    block = ColumnBlock(inst.X) if block is None else block
    beta = least_squares(inst.X, inst.y, top, block)
    if k == inst.p:
        return beta, design.rmatvec(design.matvec(beta)), 0
    residual = inst.y - design.matvec(beta)
    refits = 0
    while True:
        xtr = design.rmatvec(residual)
        candidate = _top(np.abs(beta + xtr / inst.d**2), k)
        if np.array_equal(candidate, top):
            break
        trial = least_squares(inst.X, inst.y, candidate, block)
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
    return lam + mu * (gram_beta - inst.xty - z_next)


def solve(
    inst: Instance,
    config: AdmConfig,
    beta0: np.ndarray | None = None,
    lambda0: np.ndarray | None = None,
    callback=None,
) -> tuple[np.ndarray, np.ndarray, RunReport]:
    """Solve the Dantzig selector on a growing set of columns W, from (beta0, lambda0).

    beta0 defaults to :func:`screened_start`, formed inside the timed solve
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
    ``max_outer_iter`` over all rounds.  Its answer (b_W, l_W), padded with
    zeros, is then checked off W: one fused pass over X gives X^T X_W b_W
    and X^T X_W l_W, and each column j off W has the excess ratio
    max(|x_j^T (X_W b_W - y)| / d_j - delta, |x_j^T X_W l_W| - 1), each term
    over the norm that scales it in the stopping test.  The gap and both
    norms involve W only, so the full problem's metric is the larger of the
    round's last metric and the largest of these ratios.  Every j off W
    whose ratio exceeds VIOLATION_FRACTION * tol is a violator; when there
    is none and the round converged, the solve has converged.  Otherwise the
    max(GROW_MIN, |W| // GROW_SHARE) largest violators join W, and W becomes
    all columns once it would hold more than p // 2 of them; the round then
    runs on X itself and needs no check.

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

    A round that stops at the cap returns max_iter, as does a converged round
    whose check finds violators when no outer iteration is left, unless the
    full problem's metric is at most tol; so status converged means that
    the last entry of the history is at most tol.  A round with non-finite
    values returns numerical_failure.  Each returns the padded answer of
    that round.  The products go through one
    DesignOperator of X, and each round's through one of X[:, W], built here
    and dropped on return.
    """
    t_start = time.perf_counter()
    design = DesignOperator(inst.X)
    block = ColumnBlock(inst.X)
    beta, lam, gram_beta, gram_lam, report = _start(inst, config, design, beta0, lambda0, block)
    p = inst.p
    columns = _all_past_half(np.flatnonzero((beta != 0) | (lam != 0)), p)
    if report.stopping_metric_history[0] <= config.tol:
        columns = None
    elif not columns.size:
        columns = _grow(columns, _excess(inst, beta, lam, gram_beta, gram_lam), config.tol, p)

    while columns is not None:
        whole = columns.size == p
        sub = inst if whole else inst.restricted(columns, block)
        sub_design = design if whole else DesignOperator(sub.X)
        start = (v[columns] for v in (beta, lam, gram_beta, gram_lam))
        record = callback if callback is None or whole else _padded(callback, columns, p)
        b, lam_w, metric = _adm(sub, config, sub_design, *start, report, record)
        report.working_columns = columns.size
        beta, lam = _expand(b, columns, p), _expand(lam_w, columns, p)
        if whole:
            break
        # X^T X_W b_W and X^T X_W l_W on all columns, for the check and the next round
        gram_beta, gram_lam = design.rmatvec_pair(sub_design.matvec(b), sub_design.matvec(lam_w))
        excess = _excess(inst, beta, lam, gram_beta, gram_lam)
        excess[columns] = -np.inf
        report.stopping_metric_history[-1] = max(metric, excess.max())
        if report.status != STATUS_CONVERGED:
            break
        columns = _grow(columns, excess, config.tol, p)
        if columns is not None and report.outer_iterations == config.max_outer_iter:
            passed = report.stopping_metric_history[-1] <= config.tol
            report.status = STATUS_CONVERGED if passed else STATUS_MAX_ITER
            break

    report.wall_time = time.perf_counter() - t_start
    return beta, lam, report


def _start(
    inst: Instance,
    config: AdmConfig,
    design: DesignOperator,
    beta0: np.ndarray | None = None,
    lambda0: np.ndarray | None = None,
    block: ColumnBlock | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, RunReport]:
    """(beta0, lambda0, X^T X beta0, X^T X lambda0, report) at the start of a solve.

    Checks beta0 and lambda0 and fills in their defaults as :func:`solve`
    describes; the screened start makes its products with ``design`` and
    its fits in ``block``.  A zero vector's Gram product costs nothing
    (X^T X 0 = 0), any other one apply_gram.  The report holds the start's
    metric and dual objective as the first entries of its histories, the
    start's fields, and status converged.
    """
    p = inst.p
    beta = None if beta0 is None else np.array(beta0, dtype=np.float64)
    lam = np.zeros(p) if lambda0 is None else np.array(lambda0, dtype=np.float64)
    if (beta is not None and beta.shape != (p,)) or lam.shape != (p,):
        raise ValueError(f"beta0 and lambda0 must have length {p}")
    for name, v in (("beta0", beta), ("lambda0", lam)):
        if v is not None and not np.isfinite(v).all():
            raise ValueError(f"{name} must be finite")
    start_rounds = 0
    if beta is None:
        beta, gram_beta, start_rounds = _screened_start(inst, design, config.tol, block)
    else:
        gram_beta = apply_gram(inst, beta) if beta.any() else np.zeros(p)
    gram_lam = apply_gram(inst, lam) if lam.any() else np.zeros(p)
    terms = _criterion_terms(inst, beta, lam, gram_beta, gram_lam)
    report = RunReport(
        outer_iterations=0,
        inner_iteration_total=0,
        stopping_metric_history=[max(_stopping_ratios(beta, lam, terms))],
        dual_objective_history=[terms[3]],
        wall_time=0.0,
        status=STATUS_CONVERGED,
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
    :func:`_criterion_terms` column by column, scaled as
    :func:`_stopping_ratios` scales their maxima.  A new array.
    """
    primal = np.abs(gram_beta - inst.xty) / inst.d - inst.delta
    primal /= max(float(np.linalg.norm(beta)), 1.0)
    dual = np.abs(gram_lam) - 1.0
    dual /= max(float(np.linalg.norm(lam)), 1.0)
    return np.maximum(primal, dual)


def _grow(columns: np.ndarray, excess: np.ndarray, tol: float, p: int) -> np.ndarray | None:
    """W with its largest violators added, sorted; None when no column violates.

    ``excess`` is -inf on W.  A violator's excess exceeds VIOLATION_FRACTION
    * tol; max(GROW_MIN, |W| // GROW_SHARE) of them join, the largest first
    (ties to the lower index).
    """
    violators = np.flatnonzero(excess > VIOLATION_FRACTION * tol)
    if not violators.size:
        return None
    count = max(GROW_MIN, columns.size // GROW_SHARE)
    chosen = violators[np.argsort(-excess[violators], kind="stable")[:count]]
    # W and the violators are disjoint, so sorting their concatenation unites
    # them; np.union1d would import numpy.ma on its first call
    return _all_past_half(np.sort(np.concatenate((columns, chosen))), p)


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
    callback=None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Run the alternating direction method on ``inst`` from (beta, lam), into ``report``.

    ``gram_beta`` and ``gram_lam`` are X^T X beta and X^T X lambda, and
    ``design`` makes every product with X.  ``report`` is the solve's
    (:class:`RunReport`): the run counts one round there, records each outer
    iteration after it ends, and sets the status.  Per iteration: closed-form
    z update, inner solve for beta warm-started at the previous beta and
    stopped at the iteration's tol_sub (see :class:`AdmConfig`; k counts
    this run's iterations, and the least stopping metric so far includes the
    start's), multiplier step, then the stopping test.  Its metric is the
    max of the ratios of :func:`_stopping_ratios`: the relative duality gap
    | ||beta||_1 - d(lambda) | / max(||beta||_1, 1) and the primal and dual
    excesses of :func:`_criterion_terms` over max(||beta||_2, 1) and
    max(||lambda||_2, 1).  The two excess ratios may be negative; the gap is
    not, so neither is the metric.  The dual objective d is used as-is even
    when lambda is dual-infeasible.  The run stops with status converged
    once the metric, at the start too, is at most tol, and with max_iter
    when ``report.outer_iterations`` reaches max_outer_iter.  X^T X beta and
    X^T X lambda come from the inner solver's residual and gradient (see the
    module docstring for the identities and the cost per iteration).  A
    subsolver that misses its tolerance contributes its best iterate and is
    counted in the report.  Non-finite values end the run with status
    numerical_failure, returning the state at failure, and that iteration
    records no metric.  ``callback`` gets one :class:`OuterIterationRecord`
    per recorded iteration, numbered by ``report.outer_iterations``, with
    ``columns`` None.  Returns (beta, lambda, the last metric computed).
    """
    first = report.outer_iterations
    terms = _criterion_terms(inst, beta, lam, gram_beta, gram_lam)
    metric = best_metric = max(_stopping_ratios(beta, lam, terms))
    report.rounds += 1
    while metric > config.tol and report.outer_iterations < config.max_outer_iter:
        lam_prev = lam
        z = update_z(inst, lam, config.mu, gram_beta)
        objective = SubproblemObjective(inst, z, lam, config.mu, gram_u0=gram_beta, design=design)
        tol_sub = config.inner_tolerance(report.outer_iterations - first, best_metric)
        result = solve_subproblem(objective, beta, tol_sub)
        report.inner_tolerance_history.append(tol_sub)
        report.inner_iteration_history.append(result.iterations)
        report.inner_iteration_total += result.iterations
        report.subsolver_failures += not result.succeeded
        beta = result.u
        if result.residual is None:  # the best earlier iterate: nothing held for it
            gram_beta = apply_gram(inst, beta)
        else:  # G beta = r + c; the multiplier step is mu r, so X^T X lambda = g
            gram_beta = result.residual + objective.c
        lam = update_lambda(inst, lam, z, config.mu, gram_beta)
        gram_lam = apply_gram(inst, lam) if result.residual is None else result.gradient
        report.outer_iterations += 1
        if not all(np.isfinite(v).all() for v in (beta, lam, z)):
            report.status = STATUS_NUMERICAL_FAILURE
            return beta, lam, metric
        terms = _criterion_terms(inst, beta, lam, gram_beta, gram_lam)
        metric = max(_stopping_ratios(beta, lam, terms))
        best_metric = min(best_metric, metric)
        report.stopping_metric_history.append(metric)
        report.dual_objective_history.append(terms[3])
        if callback is not None:
            copies = (z.copy(), beta.copy(), lam.copy(), lam_prev.copy())
            callback(OuterIterationRecord(report.outer_iterations, *copies, metric))
    report.status = STATUS_CONVERGED if metric <= config.tol else STATUS_MAX_ITER
    return beta, lam, metric
