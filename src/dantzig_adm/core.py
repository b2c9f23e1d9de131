"""Problem data and shared vector primitives for the Dantzig selector solver."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


def _as_vector(v, length: int | None, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if length is not None and arr.shape[0] != length:
        raise ValueError(f"{name} must have length {length}, got {arr.shape[0]}")
    return arr


@dataclass(frozen=True, eq=False)
class Instance:
    """Problem data (X, y, delta) for min ||beta||_1 s.t. ||D^-1 X^T(X beta - y)||_inf <= delta.

    D is the diagonal matrix of column norms of X; only its diagonal ``d`` is
    stored.  The p x p Gram matrix X^T X is never formed (at n=7200, p=25600 it
    would need about 5 GB); the solver applies it as two matrix-vector
    products, through :func:`apply_gram` or, in the stopping test, with X
    directly.  One such Gram product is the solver's cost unit: an outer
    iteration costs 3 and an inner iteration 2, however many line-search
    backtracks it takes.  Instances are immutable after construction and safe
    to share across concurrent solves.
    """

    X: np.ndarray
    y: np.ndarray
    delta: float
    d: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        X = np.ascontiguousarray(self.X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be a 2-d matrix, got shape {X.shape}")
        y = _as_vector(self.y, X.shape[0], "y")
        delta = float(self.delta)
        if not np.isfinite(X).all():
            raise ValueError("X contains non-finite entries")
        if not np.isfinite(y).all():
            raise ValueError("y contains non-finite entries")
        if not np.isfinite(delta) or delta <= 0:
            raise ValueError(f"delta must be a positive finite scalar, got {delta}")
        d = np.linalg.norm(X, axis=0)
        if np.any(d <= 0):
            raise ValueError("X has a zero column; every column norm must be positive")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "d", d)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @cached_property
    def xty(self) -> np.ndarray:
        """Cached X^T y, reused by every outer iteration."""
        return self.X.T @ self.y


def apply_gram(inst: Instance, v: np.ndarray) -> np.ndarray:
    """Apply the Gram operator v -> X^T (X v) as two matrix-vector products."""
    v = _as_vector(v, inst.p, "v")
    return inst.X.T @ (inst.X @ v)


def soft_thresh(v: np.ndarray, gamma: float) -> np.ndarray:
    """Entrywise sgn(v) * max(|v| - gamma, 0), the prox of gamma * ||.||_1.

    Entries with |v_i| <= gamma map exactly to zero.
    """
    gamma = float(gamma)
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    v = np.asarray(v, dtype=np.float64)
    return np.sign(v) * np.maximum(np.abs(v) - gamma, 0.0)


def box_clamp(w: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Entrywise clamp of w onto the box [-bound_j, bound_j]."""
    w = np.asarray(w, dtype=np.float64)
    bound = np.asarray(bound, dtype=np.float64)
    if w.shape != bound.shape:
        raise ValueError(f"w and bound must have equal shapes, got {w.shape} vs {bound.shape}")
    if np.any(bound <= 0):
        raise ValueError("all box bounds must be positive")
    return np.clip(w, -bound, bound)
