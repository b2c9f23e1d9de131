"""Problem data, the design operator and shared vector primitives.

:class:`Instance` holds the problem data; :class:`DesignOperator` makes every
product with X that a solve needs: X v (from the nonzero columns of v alone
when few are nonzero, copied 64 rows of X^T at a time into a scratch array
the operator keeps), X^T w, two products X^T a and X^T b in one pass over
X, and K w with the n x n kernel K = X X^T, whose one triangle the level-3
BLAS routine dsyrk of numpy's bundled OpenBLAS writes and the symmetric
product dsymv reads.  Its
:meth:`~DesignOperator.restrict` gives the operator of a few columns of X,
copied into a buffer that the operator reuses, on which the inner solver
iterates over its working set.  Every product runs on numpy alone; no solve
imports scipy.  :func:`row_tiles` reads a column-major X in row-major tiles,
from which an Instance sums ``d`` and a generated instance forms ``y``.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, cached_property, partial

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
# entries take 0.7 MiB, which one two-column product reads from a 1-2 MiB
# L2.  At 720 x 2560 (OpenBLAS 0.3.31, one thread) the chunked pass took
# 0.70 ms, and 1.77 ms as one product with all of X^T.
FUSED_ROWS = 128
# numpy's bundled OpenBLAS (64-bit integers): the package and the library's
# file pattern in <site-packages>/<package>.libs.
NUMPY_OPENBLAS = ("numpy", "libscipy_openblas64_*.so")
# Rows of X per tile of row_tiles and per draw of datagen.gen_design: 16
# rows of 2560 entries take 0.31 MiB.  The build of an instance holds X and
# two such tiles, and it sets the peak resident size of a run of solves (see
# README "Memory"); 64-row tiles held 2.6 MB there and took the same time.
ROW_TILE = 16
# Columns per copy into a tile of row_tiles.  A row of a column-major X
# spans all of X, so a whole-row copy reads each entry from another page:
# at 720 x 2560 (2-core Xeon, numpy 2.4) copying all tiles took 12 ms, and
# 3.6 ms in pieces of 256 columns.
TILE_COLUMNS = 256
# The largest bound ||L||_F ||L^-1||_F on cond(X[:, columns]) at which
# least_squares solves the normal equations by the Cholesky factor L of the
# block's Gram matrix (see _normal_equations).  The start's Gaussian blocks
# of 80 columns and 720 rows gave about 85, the two-stage refits up to 107.
NORMAL_EQUATIONS_MAX_CONDITION = 1e4
# CBLAS enum values: row- and column-major order, the upper and lower
# triangle, and no transpose.
_ROW_MAJOR, _COL_MAJOR, _UPPER, _LOWER, _NO_TRANS = 101, 102, 121, 122, 111
# ctypes of CBLAS arguments: an enum, an index (64-bit), a scalar, an array.
_ENUM, _INDEX, _SCALAR, _POINTER = ctypes.c_int, ctypes.c_int64, ctypes.c_double, ctypes.c_void_p


def row_tiles(X: np.ndarray, columns: np.ndarray | None = None):
    """Yield (start, tile): rows start, start + 1, ... of X as a C-contiguous array.

    Tiles hold ROW_TILE rows (the last may hold fewer).  Each is copied into
    one scratch of ROW_TILE rows that the next tile overwrites, so a tile is
    valid until the next one; a scratch allocated per tile would be mapped
    and faulted in again each time (glibc maps blocks past its mmap
    threshold).  With ``columns``, only those columns are copied and the
    others of each tile are zero.

    A product or a sum over a tile takes the path it takes on a row-major X:
    ``tile @ v`` gives the entries of ``np.ascontiguousarray(X) @ v`` bit for
    bit.  That holds also when only the columns where v is nonzero were
    copied: in a dot product a zero term changes no nonzero partial sum, and
    BLAS adds the result to a zeroed output, so a zero comes out as +0
    either way.
    """
    n, p = X.shape
    scratch = np.zeros((min(ROW_TILE, n), p))
    for start in range(0, n, ROW_TILE):
        tile, rows = scratch[: min(ROW_TILE, n - start)], X[start : start + ROW_TILE]
        if columns is None:
            for col in range(0, p, TILE_COLUMNS):
                tile[:, col : col + TILE_COLUMNS] = rows[:, col : col + TILE_COLUMNS]
        else:
            tile[:, columns] = rows[:, columns]
        yield start, tile


def column_sums_of_squares(tiles, p: int) -> np.ndarray:
    """sum_i X_ij^2 for each column j, from the row tiles of X in order.

    Each tile is squared below a row that holds the running sum, and that
    stack is summed down its columns by np.add.reduce, which on a row-major
    array adds one row at a time.  So the sums equal those of
    ``np.linalg.norm(X, axis=0) ** 2`` on a row-major X bit for bit, without
    its full-size temporary ``X * X``.
    """
    total = np.zeros(p)
    stack = None
    for tile in tiles:
        k = tile.shape[0]
        if stack is None:  # the first tile is the largest
            stack = np.empty((k + 1, p))
        stack[0] = total
        np.multiply(tile, tile, out=stack[1 : k + 1])
        np.add.reduce(stack[: k + 1], axis=0, out=total)
    return total


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
    contiguous and ``X.T`` is a C-contiguous p x n array.  A column-major
    input is kept as given, not copied; any other is converted once, and no
    second copy is kept.  ``d`` and the finiteness check come from one pass
    over row tiles of the input (see :func:`row_tiles`), which needs no copy
    of X either: ``d`` is summed in row-major order whatever the layout, so
    it does not depend on it.

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
        # one pass over row tiles; a square is finite unless X_ij is not or
        # overflows, and only then is X itself checked
        squares = column_sums_of_squares((tile for _, tile in row_tiles(X)), X.shape[1])
        if not np.isfinite(squares).all() and not np.isfinite(X).all():
            raise ValueError("X contains non-finite entries")
        if not np.isfinite(y).all():
            raise ValueError("y contains non-finite entries")
        if not np.isfinite(delta) or delta <= 0:
            raise ValueError(f"delta must be a positive finite scalar, got {delta}")
        d = np.sqrt(squares)
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
        self._symv = None  # dsymv bound to K, when dsyrk formed K (see kernel)

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

        a and b are packed into the columns of one n x 2 array, and X^T is
        read in chunks of FUSED_ROWS rows, each multiplied by that array in
        one matrix product (a two-column GEMM).  So each chunk is read once
        for both products.  The entries equal those of two :meth:`rmatvec`
        calls up to rounding, not bit for bit: GEMM sums the dot products in
        another order than the matrix-vector product.  At 720 x 2560
        (OpenBLAS 0.3.31, one thread) this took 0.70 ms, and 1.00 ms with X
        evicted from cache; two matrix-vector products per chunk took 0.99
        and 1.36 ms, and one X^T a 0.65 and 1.12 ms.  The two results are
        the columns of one p x 2 array: 1-D views that share no entry.
        """
        XT = self.X.T
        pair = np.column_stack((a, b))
        out = np.empty((XT.shape[0], 2))
        for start in range(0, XT.shape[0], FUSED_ROWS):
            np.matmul(XT[start : start + FUSED_ROWS], pair, out=out[start : start + FUSED_ROWS])
        return out[:, 0], out[:, 1]

    @cached_property
    def kernel(self) -> np.ndarray | None:
        """K = X X^T when n <= p, else None; formed on first use.

        When numpy's OpenBLAS binds both dsyrk and dsymv (:func:`_blas_kernel`)
        and X is column-major, one dsyrk forms K: it writes the column-major
        lower triangle, which is the upper triangle of the row-major K
        returned, and leaves the rest of K unset.  :meth:`kernel_matvec`
        then applies K through dsymv, which reads that triangle only, bound
        to K here once.  At 720 x 2560 (OpenBLAS 0.3.31, one thread) dsyrk
        gives the triangle of :func:`_kernel` bit for bit, in 29-30 against
        42-44 ms, and 30-35 against 42-44 ms inside a solve.  It leaves
        about 1.7 MiB of BLAS workspace resident.  Otherwise K is
        :func:`_kernel`, full and exactly symmetric, and K w is K @ w.
        """
        X = self.X
        n, p = X.shape
        if n > p:
            return None
        blas = _blas_kernel() if X.flags.f_contiguous else None
        if blas is None:
            return _kernel(X)
        syrk, symv = blas
        K = np.empty((n, n))
        syrk(_COL_MAJOR, _LOWER, _NO_TRANS, n, p, 1.0, X.ctypes.data, n, 0.0, K.ctypes.data, n)
        self._symv = partial(symv, _ROW_MAJOR, _UPPER, n, 1.0, K.ctypes.data, n)
        return K

    def kernel_matvec(self, w: np.ndarray) -> np.ndarray:
        """K w = X (X^T w); from the formed K when n <= p.

        Through dsymv, which reads the triangle dsyrk wrote, when dsyrk
        formed K (see :attr:`kernel`); w is then one vector of length n.  At
        n = 720 (OpenBLAS 0.3.31, one thread) it takes 0.10 ms against
        0.18 ms for K @ w, which reads all of K, and 0.14 ms against 0.20 ms
        per call inside a solve, where other products evict K from cache.
        Otherwise the product is K @ w.
        """
        K = self.kernel
        if K is None:
            return self.X @ (self.X.T @ w)
        if self._symv is None:
            return K @ w
        w = np.ascontiguousarray(w, dtype=np.float64)
        out = np.zeros(K.shape[0])
        self._symv(w.ctypes.data, 1, 0.0, out.ctypes.data, 1)
        return out


@cache
def _openblas():
    """numpy's bundled OpenBLAS as a ctypes library, or None when numpy bundles none.

    Opened on first use, not at import.  The library is the one numpy has
    already loaded (RTLD_NOLOAD), so no second BLAS enters the process;
    scipy.linalg.blas would load scipy's own OpenBLAS (importing
    scipy.linalg adds about 27 MiB of resident pages).
    """
    import os
    from pathlib import Path

    package, pattern = NUMPY_OPENBLAS
    for path in (Path(np.__file__).parent.parent / f"{package}.libs").glob(pattern):
        try:
            return ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
        except OSError:
            continue
    return None


def _cblas(symbol: str, *argtypes):
    """``symbol`` of :func:`_openblas` with its argument types and no result, or None."""
    function = getattr(_openblas(), symbol, None)
    if function is not None:
        function.argtypes, function.restype = list(argtypes), None
    return function


@cache
def _dsymv():
    """cblas_dsymv of :func:`_openblas`, bound on the first kernel formed; None without it."""
    return _cblas(
        "scipy_cblas_dsymv64_", _ENUM, _ENUM, _INDEX, _SCALAR, _POINTER, _INDEX,
        _POINTER, _INDEX, _SCALAR, _POINTER, _INDEX,
    )


@cache
def _dsyrk():
    """cblas_dsyrk of :func:`_openblas`, bound on the first kernel formed; None without it."""
    return _cblas(
        "scipy_cblas_dsyrk64_", _ENUM, _ENUM, _ENUM, _INDEX, _INDEX, _SCALAR, _POINTER,
        _INDEX, _SCALAR, _POINTER, _INDEX,
    )


def _blas_kernel():
    """(dsyrk, dsymv) when numpy's OpenBLAS binds both, else None.

    This one test decides both how K is formed and how it is applied: a K
    from dsyrk holds one triangle, which only dsymv reads, and without
    either routine K is :func:`_kernel`'s full K and K w is K @ w.
    """
    syrk, symv = _dsyrk(), _dsymv()
    return None if syrk is None or symv is None else (syrk, symv)


def set_blas_threads(count: int) -> int | None:
    """Run numpy's OpenBLAS on ``count`` threads; its previous count, or None.

    None means numpy bundles no OpenBLAS or it has no thread-count getter
    and setter, and nothing changes.  The setting holds for the whole
    process.
    """
    library = _openblas()
    get = getattr(library, "scipy_openblas_get_num_threads64_", None)
    put = getattr(library, "scipy_openblas_set_num_threads64_", None)
    if get is None or put is None:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    previous = get()
    put(count)
    return previous


@contextmanager
def one_blas_thread():
    """numpy's OpenBLAS on one thread inside the block, its previous count after.

    LAPACK's blocked routines split their work by the thread count, so a
    factorization run under one thread gives the same bytes in every process.
    """
    previous = set_blas_threads(1)
    try:
        yield
    finally:
        if previous is not None:
            set_blas_threads(previous)


def least_squares(X: np.ndarray, y: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """The p-vector b that minimizes ||y - X b||_2 with b zero off ``columns``.

    On the columns, with B = X[:, columns], it solves the normal equations
    B^T B b = B^T y by the Cholesky factor of B^T B when
    :func:`_normal_equations` finds B well-conditioned, and is LAPACK's
    minimum-norm least-squares answer (np.linalg.lstsq, an SVD) otherwise,
    also when B is rank-deficient or has more columns than rows.  At
    720 x 80 (one thread) the normal equations took 0.4-0.7 ms and lstsq
    1.9-3.3 ms, and their answers differed by 3e-15 relative.  It runs on one
    BLAS thread (see :func:`one_blas_thread`), so its bytes do not depend on
    the thread count.
    """
    b = np.zeros(X.shape[1])
    if columns.size:
        block = np.asarray(X[:, columns])  # a plain copy: its products are not with X
        with one_blas_thread():
            fit = _normal_equations(block, y)
            if fit is None:
                fit, *_ = np.linalg.lstsq(block, y, rcond=None)
            b[columns] = fit
    return b


def _normal_equations(block: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """argmin ||y - block b||_2 from the Cholesky factor L of block^T block; None if unsafe.

    The normal equations' answer carries a relative error of about
    cond(block)^2 u, u = 2^-53 (Bjorck, Numerical Methods for Least Squares
    Problems, SIAM 1996, 2.2).  So it is None when the block has more columns
    than rows, when np.linalg.cholesky fails, or when kappa =
    ||L||_F ||L^-1||_F exceeds NORMAL_EQUATIONS_MAX_CONDITION = 1e4, which
    keeps that error below about 1e8 u = 1.1e-8.  kappa bounds
    cond_2(block) = cond_2(L) from above, up to the rounding of
    block^T block.  The diagonal ratio min L_ii / max L_ii is no such bound:
    L_ii is the distance of column i from the span of the columns before it,
    which can stay large for every column of a nearly dependent block (a
    Kahan-type block of 80 columns has a ratio of 0.2 and a condition number
    of 3e7).  L^-1 costs about as much as two triangular solves, and
    b = L^-T (L^-1 block^T y).
    """
    if block.shape[1] > block.shape[0]:
        return None
    gram = block.T @ block
    try:
        factor = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return None
    inverse = np.linalg.inv(factor)
    if not np.sqrt(np.trace(gram)) * np.linalg.norm(inverse) <= NORMAL_EQUATIONS_MAX_CONDITION:
        return None
    return inverse.T @ (inverse @ (block.T @ y))


def _kernel(X: np.ndarray) -> np.ndarray:
    """K = X X^T, exactly symmetric, formed in blocks of 64 columns.

    The kernel of :attr:`DesignOperator.kernel` where dsyrk is not used.
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
