"""Answer check for a Dantzig selector solve, independent of the solver's code.

The certificate is recomputed from the problem data and the returned primal
and dual vectors only: no solver state and no solver routine is used, so a
solver change that returns a wrong answer fails here even if it also changes
its own stopping test.
"""

from __future__ import annotations

import numpy as np


def certificate(X, y, delta, beta, lam) -> dict:
    """Relative duality gap and primal/dual infeasibility ratios of (beta, lam).

    With d_j the column norms of X:

    - primal = (max_j |X_j^T (X beta - y)| / d_j - delta) / max(||beta||_2, 1)
    - dual   = (||X^T X lam||_inf - 1) / max(||lam||_2, 1)
    - gap    = | ||beta||_1 - D(lam) | / max(||beta||_1, 1), where
      D(lam) = -y^T X lam - delta * sum_j d_j |lam_j| is the dual objective.

    A solve is correct at tolerance tol when all three are <= tol.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    d = np.sqrt(np.einsum("ij,ij->j", X, X))
    correlation = X.T @ (X @ beta - y)
    primal = (np.max(np.abs(correlation) / d) - delta) / max(np.linalg.norm(beta), 1.0)
    x_lam = X @ lam
    dual = (np.max(np.abs(X.T @ x_lam)) - 1.0) / max(np.linalg.norm(lam), 1.0)
    dual_value = -(y @ x_lam) - delta * (d @ np.abs(lam))
    beta_l1 = np.abs(beta).sum()
    gap = abs(beta_l1 - dual_value) / max(beta_l1, 1.0)
    return {"gap": float(gap), "primal": float(primal), "dual": float(dual)}


def passes(terms: dict, tol: float) -> bool:
    """True when every certificate term is within tol (NaN fails)."""
    return all(terms[key] <= tol for key in ("gap", "primal", "dual"))


def wrong_answers(beta: np.ndarray, seed: int) -> dict:
    """Two wrong answers derived from a correct beta, for checking the checker.

    ``zeros`` is the empty estimate; ``perturbed`` adds noise of size 1e-2 to
    every coordinate, a small error next to signal entries of magnitude >= 1.
    """
    rng = np.random.default_rng(seed)
    return {
        "zeros": np.zeros_like(beta),
        "perturbed": beta + 1e-2 * rng.standard_normal(beta.shape),
    }
