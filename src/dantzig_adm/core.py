"""Problem data, the design operator and shared vector primitives.

:class:`Instance` holds the problem data; :class:`DesignOperator` makes every
product with X that a solve needs: X v (from the nonzero columns of v alone
when few are nonzero), X^T w, and K w with the n x n kernel K = X X^T.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Below this many entries X stays in cache, and a dense X v takes less time
# than building the one-row sparse matrix of the restricted product (~20 us).
RESTRICTED_MIN_ENTRIES = 1 << 18


def _column_major(X: np.ndarray) -> np.ndarray:
    """X in Fortran order, copied in blocks of 64 rows when it is not already.

    A block reads 64 whole rows and writes 64 contiguous entries of each
    column, so both sides stay in cache; np.asfortranarray copies in element
    order and takes about twice as long on a large X.
    """
    if X.flags.f_contiguous:
        return X
    out = np.empty(X.shape[::-1])
    for start in range(0, X.shape[0], 64):
        out[:, start : start + 64] = X[start : start + 64].T
    return out.T


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
    stored.  ``X`` is held in column-major (Fortran) order, so each column is
    contiguous and ``X.T`` is a C-contiguous p x n array.  The column norms
    and the finiteness checks run on the input as given (``d`` is always
    summed in row-major order, so it does not depend on the input's layout);
    a row-major input is then converted once, and no second copy is kept.

    The p x p Gram matrix X^T X is never formed (at n=7200, p=25600 it would
    need about 5 GB).  A solve makes its products through a
    :class:`DesignOperator`, which may form the n x n kernel X X^T for that
    solve only; nothing but X^T y is cached here.  One n x p matrix-vector
    product is the solver's cost unit: an inner iteration costs 2 (X d, with d
    sparse, and one X^T product) plus one n x n product, however many
    line-search backtracks it takes, and an inner solve 3 more.  Instances
    are immutable after construction and safe to share across concurrent
    solves.
    """

    X: np.ndarray
    y: np.ndarray
    delta: float
    d: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
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
        # summed in row-major order whatever the layout, so d never depends on it
        d = np.linalg.norm(np.ascontiguousarray(X), axis=0)
        if np.any(d <= 0):
            raise ValueError("X has a zero column; every column norm must be positive")
        object.__setattr__(self, "X", _column_major(X))
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


class DesignOperator:
    """The products with X that one solve makes: X v, X^T w and K w, K = X X^T.

    The inner solver works in n-space (see :mod:`~dantzig_adm.subsolver`), so
    besides X v and X^T w it needs the n x n kernel product.  When n <= p, K
    is formed on the first kernel product and kept for the life of the
    operator; it then takes n^2 entries, no more than X.  When n > p no K is
    formed and K w is computed as X (X^T w).  Either way callers see one
    method.  An operator is built for one solve and dropped on return; it is
    not cached on the Instance, whose memory stays that of X.
    """

    def __init__(self, X: np.ndarray):
        self.X = X

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """X v; from the nonzero columns only when they are at most half of v.

        The restricted path runs when X has at least RESTRICTED_MIN_ENTRIES
        entries.  It forms X v as a one-row sparse matrix times the
        C-contiguous X^T, which reads just those rows of X^T and builds no
        n x |S| temporary.
        """
        X = self.X
        if X.size >= RESTRICTED_MIN_ENTRIES:
            support = np.flatnonzero(v)
            if 2 * support.size <= X.shape[1]:
                # Imported on first use: at module level, ahead of the scipy.io
                # import in fileio, it made a fresh `import dantzig_adm.cli`
                # about 30 ms slower.
                from scipy.sparse import csr_array

                row = csr_array((v[support], support, [0, support.size]), shape=(1, X.shape[1]))
                return (row @ X.T)[0]
        return X @ v

    def rmatvec(self, w: np.ndarray) -> np.ndarray:
        """X^T w."""
        return self.X.T @ w

    @cached_property
    def kernel(self) -> np.ndarray | None:
        """K = X X^T when n <= p, else None; formed on first use (see :func:`_kernel`)."""
        n, p = self.X.shape
        return _kernel(self.X) if n <= p else None

    def kernel_matvec(self, w: np.ndarray) -> np.ndarray:
        """K w = X (X^T w); from the formed K when n <= p."""
        K = self.kernel
        if K is None:
            return self.X @ (self.X.T @ w)
        return K @ w


def _kernel(X: np.ndarray) -> np.ndarray:
    """K = X X^T, exactly symmetric, formed in blocks of 64 columns.

    Each block fills one column block of the lower triangle,
    K[j:, j:j+64] = X[j:] X[j:j+64]^T, and is mirrored into the rows above.
    Small blocks keep OpenBLAS's packing buffer small: it grows with the
    width of the product and stays resident.  Over a run of 720 x 2560
    solves (OpenBLAS 0.3.31), one X @ X.T raised the peak resident size by
    2.8%, blocks of 64 by 0.4%.
    """
    n = X.shape[0]
    K = np.empty((n, n))
    for start in range(0, n, 64):
        block = X[start:] @ X[start : start + 64].T
        stop = start + block.shape[1]
        K[start:, start:stop] = block
        K[start:stop, stop:] = block[stop - start :].T
        # the diagonal block keeps its lower triangle, so K is exactly symmetric
        top = block[: stop - start]
        K[start:stop, start:stop] = np.tril(top) + np.tril(top, -1).T
    return K


def apply_gram(inst: Instance, v: np.ndarray) -> np.ndarray:
    """Apply the Gram operator v -> X^T (X v) as two matrix-vector products.

    X v takes the support-restricted path of :meth:`DesignOperator.matvec`
    when at most half of v is nonzero.  The outer loop uses this for the
    products the inner solver does not hand back, and the certificate of
    :func:`~dantzig_adm.evaluation.feasibility_report` for all of its own.
    """
    v = _as_vector(v, inst.p, "v")
    design = DesignOperator(inst.X)
    return design.rmatvec(design.matvec(v))


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
