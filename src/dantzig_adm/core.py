"""Problem data, the design operator and shared vector primitives.

:class:`Instance` holds the problem data; :class:`DesignOperator` makes every
product with X that a solve needs: X v (from the nonzero columns of v alone
when few are nonzero, copied 64 rows of X^T at a time into a scratch array
the operator keeps), X^T w, two products X^T a and X^T b in one pass over
X, and K w with the n x n kernel K = X X^T, read from one triangle of K
through the BLAS symmetric product dsymv of numpy's bundled OpenBLAS.  Its
:meth:`~DesignOperator.restrict` gives the operator of a few columns of X,
copied into a buffer that the operator reuses, on which the inner solver
iterates over its working set.  Every product runs on numpy alone; no solve
imports scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

# Below this many entries X stays in cache, and a dense X v takes about as
# long as the restricted product's fixed cost of ~4 us.  With X in cache
# (OpenBLAS 0.3.31, one thread), at 2^16 entries (128 x 512) the two tie at
# 10 nonzeros and the dense product wins above; at 2^18 (256 x 1024) the
# restricted product takes 8-37 us against 35 us up to 30% nonzeros.
RESTRICTED_MIN_ENTRIES = 1 << 18
# Rows of X^T per chunk of the restricted X v: the scratch that holds them
# takes 0.35 MiB at n = 720 and is allocated once per operator.
RESTRICTED_ROWS = 64
# Rows of X^T per chunk of DesignOperator.rmatvec_pair: 128 rows of 720
# entries take 0.7 MiB, which stays in a 1-2 MiB L2 for the second product.
FUSED_ROWS = 128
# numpy's bundled OpenBLAS (64-bit integers): the package and the library's
# file pattern in <site-packages>/<package>.libs.
NUMPY_OPENBLAS = ("numpy", "libscipy_openblas64_*.so")
# CBLAS enum values of a row-major matrix and of its upper triangle.
_ROW_MAJOR, _UPPER = 101, 121


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
    :class:`DesignOperator`, which may form the n x n kernel X X^T and copy
    rows of X^T for that solve only; nothing but X^T y is cached here.  One
    n x p matrix-vector product is the solver's cost unit: an inner
    iteration costs at most 2 (X d, with d sparse, and one X^T product) plus
    one n x n product, however many line-search backtracks it takes.  On a
    working set the 2 shrink to products with |W| of the p columns, and an
    inner solve whose working set is certified from the start reads all of X
    only once besides, in one fused pass for its gradient and residual (see
    :mod:`~dantzig_adm.subsolver`).
    Instances are immutable after construction and safe to share across
    concurrent solves.
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
    method.  The same holds for the buffer of :meth:`restrict`, a quarter
    of X.  An operator is built for one solve and dropped on return; it is
    not cached on the Instance, whose memory stays that of X.
    """

    def __init__(self, X: np.ndarray):
        self.X = X
        self._rows: np.ndarray | None = None  # X^T[columns] of the last restrict
        self._scratch: np.ndarray | None = None  # RESTRICTED_ROWS rows of X^T

    def restrict(self, columns: np.ndarray) -> "DesignOperator | None":
        """The operator of X[:, columns], or None for more than p // 4 columns.

        The rows X^T[columns] are copied, with one np.take, into a buffer of
        p // 4 rows of X^T that is allocated on the first call and kept by
        this operator.  Each call overwrites it, so
        only the operator of the last call is valid.  A fresh copy per call
        would pay its page faults again on every inner solve.  The products
        of the returned operator read |columns| rows of X^T instead of p.
        Its kernel is that of X[:, columns], not K.  It shares this
        operator's scratch for the restricted X v, as both have n rows.

        The quarter is where the inner solver's working set paid: a larger
        set comes from an early inner solve whose iterate still moves far,
        and there the copy saved least and changed the iterates most (see
        :mod:`~dantzig_adm.subsolver`).
        """
        n, p = self.X.shape
        if 4 * columns.size > p:
            return None
        if self._rows is None:
            self._rows = np.empty((p // 4, n))
        rows = self._rows[: columns.size]
        # mode="clip" skips the bounds pass that makes "raise" copy via a temporary
        np.take(self.X.T, columns, axis=0, out=rows, mode="clip")
        restricted = DesignOperator(rows.T)
        restricted._scratch = self._chunk_scratch()
        return restricted

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """X v; from the nonzero columns only when they are at most half of v.

        The restricted path (:meth:`_restricted_matvec`) runs when X has at
        least RESTRICTED_MIN_ENTRIES entries.
        """
        X = self.X
        if X.size >= RESTRICTED_MIN_ENTRIES:
            support = np.flatnonzero(v)
            if 2 * support.size <= X.shape[1]:
                return self._restricted_matvec(v, support)
        return X @ v

    def _restricted_matvec(self, v: np.ndarray, support: np.ndarray) -> np.ndarray:
        """X[:, S] v[S] for the support S of v, exactly zero for an empty S.

        The rows X^T[S] are copied RESTRICTED_ROWS at a time into the kept
        scratch, and each chunk adds v[chunk] X^T[chunk].  So only |S| rows
        of X^T are read, and no n x |S| copy is made.  At 720 x 2560, with X
        out of cache (OpenBLAS 0.3.31, one thread, mmap threshold 128 KiB),
        this took 0.03 / 0.07 / 0.12 / 0.23 / 0.42 ms at |S| = 20 / 100 /
        256 / 600 / 1280; X[:, S] @ v[S], which copies all |S| columns
        first, took 0.02 / 0.22 / 0.53 / 1.2 / 1.2 ms.  A scratch allocated
        on each call is mapped and faulted in again each time: 0.08 ms at
        |S| = 20.
        """
        XT, scratch = self.X.T, self._chunk_scratch()
        out = np.zeros(XT.shape[1])
        for start in range(0, support.size, RESTRICTED_ROWS):
            chunk = support[start : start + RESTRICTED_ROWS]
            rows = scratch[: chunk.size]
            np.take(XT, chunk, axis=0, out=rows, mode="clip")
            out += v[chunk] @ rows
        return out

    def _chunk_scratch(self) -> np.ndarray:
        """The RESTRICTED_ROWS x n scratch of the restricted X v, allocated on first use."""
        if self._scratch is None:
            self._scratch = np.empty((RESTRICTED_ROWS, self.X.shape[0]))
        return self._scratch

    def rmatvec(self, w: np.ndarray) -> np.ndarray:
        """X^T w."""
        return self.X.T @ w

    def rmatvec_pair(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(X^T a, X^T b) in one pass over X.

        X^T is read in chunks of FUSED_ROWS rows, and each chunk serves both
        products while it sits in cache; each entry is the same dot product
        as in :meth:`rmatvec`.  At 720 x 2560 (OpenBLAS 0.3.31, one thread)
        this took 1.2 ms, two separate products 1.4 ms, and one product with
        the two-column matrix [a b] 1.9 ms.
        """
        XT = self.X.T
        out_a, out_b = np.empty(XT.shape[0]), np.empty(XT.shape[0])
        for start in range(0, XT.shape[0], FUSED_ROWS):
            chunk, stop = XT[start : start + FUSED_ROWS], start + FUSED_ROWS
            np.matmul(chunk, a, out=out_a[start:stop])
            np.matmul(chunk, b, out=out_b[start:stop])
        return out_a, out_b

    @cached_property
    def kernel(self) -> np.ndarray | None:
        """K = X X^T when n <= p, else None; formed on first use (see :func:`_kernel`)."""
        n, p = self.X.shape
        return _kernel(self.X) if n <= p else None

    def kernel_matvec(self, w: np.ndarray) -> np.ndarray:
        """K w = X (X^T w); from the formed K when n <= p.

        K is exactly symmetric, so dsymv reads its upper triangle only.  At
        n = 720 (OpenBLAS 0.3.31, one thread) it takes 0.10 ms against
        0.18 ms for K @ w, which reads all of K, and 0.14 ms against 0.20 ms
        per call inside a solve, where other products evict K from cache.
        Without the binding (see :func:`_dsymv`), for a w that is not one
        vector of length n, or for a K that is not C-contiguous (the K of
        :func:`_kernel` is), the product is K @ w.
        """
        K = self.kernel
        if K is None:
            return self.X @ (self.X.T @ w)
        n = K.shape[0]
        symv = _dsymv()
        if symv is None or np.shape(w) != (n,) or not K.flags.c_contiguous:
            return K @ w
        w = np.ascontiguousarray(w, dtype=np.float64)
        out = np.zeros(n)
        symv(_ROW_MAJOR, _UPPER, n, 1.0, K.ctypes.data, n, w.ctypes.data, 1, 0.0, out.ctypes.data, 1)
        return out


@cache
def _openblas():
    """numpy's bundled OpenBLAS as a ctypes library, or None when numpy bundles none.

    Opened on first use, not at import.  The library is the one numpy has
    already loaded (RTLD_NOLOAD), so no second BLAS enters the process;
    scipy.linalg.blas would load scipy's own OpenBLAS (importing
    scipy.linalg adds about 27 MiB of resident pages).
    """
    import ctypes
    import os
    from pathlib import Path

    package, pattern = NUMPY_OPENBLAS
    for path in (Path(np.__file__).parent.parent / f"{package}.libs").glob(pattern):
        try:
            return ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
        except OSError:
            continue
    return None


@cache
def _dsymv():
    """cblas_dsymv of :func:`_openblas`, bound on the first kernel product; None without it."""
    import ctypes

    symv = getattr(_openblas(), "scipy_cblas_dsymv64_", None)
    if symv is not None:
        index, scalar, pointer = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
        symv.argtypes = [
            ctypes.c_int, ctypes.c_int, index, scalar, pointer, index,
            pointer, index, scalar, pointer, index,
        ]
        symv.restype = None
    return symv


def _kernel(X: np.ndarray) -> np.ndarray:
    """K = X X^T, exactly symmetric, formed in blocks of 64 columns.

    Each block fills one column block of the lower triangle,
    K[j:, j:j+64] = X[j:] X[j:j+64]^T, written by the product straight into
    a column-major K (no temporary and no copy), and is mirrored into the
    rows above.  Small blocks keep OpenBLAS's packing buffer small: it grows
    with the width of the product and stays resident.  Over a run of
    720 x 2560 solves (OpenBLAS 0.3.31), one X @ X.T raised the peak
    resident size by 2.8%, blocks of 64 by 0.4%.  K is returned as its
    transpose, a row-major array that equals K entry for entry.
    """
    n = X.shape[0]
    K = np.empty((n, n), order="F")
    for start in range(0, n, 64):
        stop = min(start + 64, n)
        np.matmul(X[start:], X[start:stop].T, out=K[start:, start:stop])
        K[start:stop, stop:] = K[stop:, start:stop].T
        # the diagonal block keeps its lower triangle, so K is exactly symmetric
        top = K[start:stop, start:stop]
        K[start:stop, start:stop] = np.tril(top) + np.tril(top, -1).T
    return K.T


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
