"""Two-stage refitting and error ratios for recovered signals."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Instance, _as_vector, apply_gram, least_squares
from .adm import _criterion_terms, _stopping_ratios


@dataclass(frozen=True, eq=False)
class EvalResult:
    """Error ratios and support bookkeeping for one recovered signal.

    rho2_orig rates the raw estimate, rho2 the two-stage refit; both divide
    the squared error by the ideal risk sum_j min(beta_j^2, sigma^2).
    oversized_support flags a truncated support larger than n (the refit is
    then the minimum-norm least-squares solution).
    """

    rho2_orig: float
    rho2: float
    support_estimated: np.ndarray
    support_true: np.ndarray
    true_positives: int
    false_positives: int
    oversized_support: bool = False


class FeasibilityReport(NamedTuple):
    """The certificate terms, absolute and as the ratios of the stopping test."""

    primal_violation: float
    dual_violation: float
    gap: float
    primal_ratio: float  # primal_violation / max(||beta||_2, 1)
    dual_ratio: float  # dual_violation / max(||lambda||_2, 1)
    gap_ratio: float  # gap / max(||beta||_1, 1)


def two_stage(beta_tilde: np.ndarray, inst: Instance, sigma_noise: float) -> np.ndarray:
    """Truncate entries with magnitude <= 2 sigma, then refit by least squares.

    The refit is :func:`~dantzig_adm.core.least_squares`: min ||y - X_T b||_2
    on the surviving support T, from the Cholesky factor of X_T^T X_T when
    X_T is well-conditioned, and LAPACK's minimum-norm solution otherwise
    (also when X_T is rank-deficient, including |T| > n); entries off T stay
    zero.  An empty T returns the zero vector.
    """
    if not sigma_noise > 0:
        raise ValueError(f"sigma_noise must be positive, got {sigma_noise}")
    beta_tilde = np.asarray(beta_tilde, dtype=np.float64)
    if beta_tilde.shape != (inst.p,):
        raise ValueError(f"beta_tilde must have length {inst.p}, got {beta_tilde.shape}")
    support = np.flatnonzero(np.abs(beta_tilde) > 2.0 * sigma_noise)
    return least_squares(inst.X, inst.y, support)


def rho_metrics(beta_est: np.ndarray, beta_true: np.ndarray, sigma_noise: float) -> float:
    """sum_j (beta_est_j - beta_true_j)^2 / sum_j min(beta_true_j^2, sigma^2)."""
    beta_est = np.asarray(beta_est, dtype=np.float64)
    beta_true = np.asarray(beta_true, dtype=np.float64)
    if beta_est.shape != beta_true.shape:
        raise ValueError(
            f"estimate and truth must have equal shapes, got {beta_est.shape} vs {beta_true.shape}"
        )
    denom = float(np.minimum(beta_true**2, sigma_noise**2).sum())
    if denom == 0.0:
        raise ValueError("ideal risk is zero (beta_true = 0 and sigma = 0)")
    return float(((beta_est - beta_true) ** 2).sum()) / denom


def feasibility_report(inst: Instance, beta: np.ndarray, lam: np.ndarray) -> FeasibilityReport:
    """Positive parts of the primal/dual constraint violations and the duality gap.

    The terms are those of the solver's stopping test
    (:func:`~dantzig_adm.adm._criterion_terms`), recomputed from
    (X, y, delta, beta, lambda) with two fresh Gram products and no solver
    state: max(max_j |(X^T X beta - X^T y)_j| / d_j - delta, 0),
    max(||X^T X lambda||_inf - 1, 0) and | ||beta||_1 - d(lambda) |.  Each
    comes with its ratio of the stopping test, the same term over
    max(||beta||_2, 1), max(||lambda||_2, 1) and max(||beta||_1, 1), so a
    solve converged at tol has every ratio at most tol, up to the rounding
    of the fresh products.
    """
    beta = _as_vector(beta, inst.p, "beta")
    lam = _as_vector(lam, inst.p, "lambda")
    terms = _criterion_terms(inst, beta, lam, apply_gram(inst, beta), apply_gram(inst, lam))
    gap_ratio, primal_ratio, dual_ratio = _stopping_ratios(beta, lam, terms)
    primal, dual, beta_l1, dual_value = terms
    return FeasibilityReport(
        primal_violation=max(primal, 0.0),
        dual_violation=max(dual, 0.0),
        gap=abs(beta_l1 - dual_value),
        primal_ratio=max(primal_ratio, 0.0),
        dual_ratio=max(dual_ratio, 0.0),
        gap_ratio=gap_ratio,
    )


def evaluate_solution(
    inst: Instance,
    beta_tilde: np.ndarray,
    beta_true: np.ndarray,
    sigma_noise: float,
    beta_hat: np.ndarray | None = None,
) -> EvalResult:
    """Bundle the raw and two-stage error ratios against the known truth."""
    if beta_hat is None:
        beta_hat = two_stage(beta_tilde, inst, sigma_noise)
    beta_true = np.asarray(beta_true, dtype=np.float64)
    support_est = np.flatnonzero(np.abs(beta_tilde) > 2.0 * sigma_noise)
    support_true = np.flatnonzero(beta_true)
    true_set = set(support_true.tolist())
    tp = sum(1 for j in support_est.tolist() if j in true_set)
    return EvalResult(
        rho2_orig=rho_metrics(beta_tilde, beta_true, sigma_noise),
        rho2=rho_metrics(beta_hat, beta_true, sigma_noise),
        support_estimated=support_est,
        support_true=support_true,
        true_positives=tp,
        false_positives=support_est.size - tp,
        oversized_support=support_est.size > inst.n,
    )
