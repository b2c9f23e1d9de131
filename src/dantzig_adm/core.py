"""Problem data, the design operator and shared vector primitives.

:class:`Instance` holds the problem data; :class:`DesignOperator` makes every
product with X that a solve needs: X v (from the nonzero columns of v alone
when few are nonzero, copied 64 rows of X^T at a time into a scratch array
the operator keeps), X^T w, two products X^T a and X^T b in one pass over
X, and the inner solve's products with G = X^T X, its Gram matrix: from
the formed G when p < n, and as X^T (X v) otherwise.  Every product runs
on numpy alone; no solve imports scipy.  The operator also copies columns
of X into one buffer it keeps (:meth:`DesignOperator.take`), for the
least-squares fits of :func:`least_squares`, and makes the operator of the
few columns on which a solve runs each round
(:meth:`DesignOperator.restricted`), whose block and Gram matrix append
the new columns to the last round's.  :func:`_kernel` forms every Gram
matrix.  :func:`row_tiles` reads a column-major X in row-major tiles,
from which an Instance sums ``d`` and a generated instance forms ``y``.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
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
    second copy is kept.  ``d``, the finiteness check and ``xty`` = X^T y
    come from one pass over row tiles of the input (see :func:`row_tiles`),
    which needs no copy of X either: ``d`` and ``xty`` are summed in
    row-major order whatever the layout, so they do not depend on it.  A
    solve reads ``xty`` and makes no X^T y product of its own.

    The p x p Gram matrix X^T X of a wide X is never formed (at n=7200,
    p=25600 it would need about 5 GB).  A solve makes its products through a
    :class:`DesignOperator`, which may form X^T X when p < n and copy rows of
    X^T for that solve only; nothing but ``d`` and X^T y is kept here.  One
    n x p matrix-vector product is the solver's cost unit: an inner iteration
    makes two products with G = X^T X, however many line-search backtracks
    it takes (see :mod:`~dantzig_adm.subsolver`), each of them two as
    X^T (X v).  A solve runs its inner iterations on the instance of a block of columns
    (:meth:`restricted`), and on a block of |W| < n columns an iteration
    makes two |W| x |W| products with the block's formed Gram matrix in
    their place.
    Instances are immutable after construction and safe to share across
    concurrent solves.
    """

    X: np.ndarray
    y: np.ndarray
    delta: float
    d: np.ndarray = field(init=False, repr=False)
    xty: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        if X.ndim != 2 or not X.size:
            raise ValueError(f"X must be a nonempty 2-d matrix, got shape {X.shape}")
        y = _as_vector(self.y, X.shape[0], "y")
        delta = float(self.delta)
        xty = np.zeros(X.shape[1])

        def tiles():
            for start, tile in row_tiles(X):
                np.add(xty, tile.T @ y[start : start + tile.shape[0]], out=xty)
                yield tile

        # one pass over row tiles; a square is finite unless X_ij is not or
        # overflows, and only then is X itself checked.  An infinite X_ij
        # times a zero y_i makes a NaN in xty, which must not warn before
        # the check raises.
        with np.errstate(invalid="ignore"):
            squares = column_sums_of_squares(tiles(), X.shape[1])
        if not np.isfinite(squares).all() and not np.isfinite(X).all():
            raise ValueError("X contains non-finite entries")
        if not np.isfinite(y).all():
            raise ValueError("y contains non-finite entries")
        if not np.isfinite(delta) or delta <= 0:
            raise ValueError(f"delta must be a positive finite scalar, got {delta}")
        d = np.sqrt(squares)
        if np.any(d <= 0):
            raise ValueError("X has a zero column; every column norm must be positive")
        object.__setattr__(self, "X", np.asfortranarray(X))
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "xty", xty)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def restricted(self, columns: np.ndarray, X_W: np.ndarray) -> "Instance":
        """The instance of X[:, columns] with the same y and delta.

        Its X is ``X_W``, the copy of X[:, columns] that
        :meth:`DesignOperator.restricted` made, held as given.  Its d and
        X^T y are those of this instance on ``columns``, read off and not
        recomputed, and the copy is not checked again: no pass over X is
        made.
        """
        sub = object.__new__(Instance)
        for name, value in (("X", X_W), ("y", self.y), ("delta", self.delta),
                            ("d", self.d[columns]), ("xty", self.xty[columns])):
            object.__setattr__(sub, name, value)
        return sub


class DesignOperator:
    """The products with X that one solve makes, and those of its inner solves.

    Besides X v and X^T w, the inner solver (see :mod:`~dantzig_adm.subsolver`)
    needs products with G = X^T X only, G v (:meth:`gram_matvec`).  When
    p < n, G (:attr:`kernel`) takes fewer entries than X; it is formed once,
    on its first use (by :meth:`restricted`, for an operator it makes), and
    kept for the life of the operator, and G v makes no product with X.
    Otherwise G would take at least as many entries as X, and G v is
    X^T (X v), two products with X.  An operator is built for one solve (or
    one round of it) and dropped on return; it is not cached on the
    Instance, whose memory stays that of X.

    The operator also copies columns of X into one buffer it keeps
    (:meth:`take`), and makes the operator of a solve's round on a block of
    columns (:meth:`restricted`) on such a copy.
    """

    def __init__(self, X: np.ndarray):
        self.X = X
        self._scratch: np.ndarray | None = None  # RESTRICTED_ROWS rows of X^T
        self._rows: np.ndarray | None = None  # the column buffer of take
        self._last: tuple[np.ndarray, DesignOperator] | None = None  # of restricted

    def take(self, columns: np.ndarray, kept: int = 0) -> np.ndarray:
        """X[:, columns], n x |columns| and column-major; valid until the next call.

        The buffer holds rows of X^T, so each copy is one np.take and the
        block it gives is column-major.  The first ``kept`` columns are those
        the last call copied first, left in place: only ``columns[kept:]``
        are copied, into the rows after them, so a block that grows by
        appended columns copies the new ones alone.  The buffer is allocated
        for twice the columns first asked for, and again for twice as many
        (then copying all of them) when a copy needs more, but for no more
        than max(p // 2, columns) columns; so a solve whose column set grows
        by a quarter per round copies into the same pages for a few rounds,
        and a block of at most p // 2 columns never allocates X's size.  A
        buffer allocated per copy is mapped and faulted in afresh each time:
        113 minor faults per 720 x 80 least-squares block (glibc maps blocks
        past its 128 KiB threshold).  Only the pages a copy writes become
        resident.
        """
        n, p = self.X.shape
        if self._rows is None or self._rows.shape[0] < columns.size:
            self._rows = np.empty((min(2 * columns.size, max(p // 2, columns.size)), n))
            kept = 0
        rows = self._rows[: columns.size]
        # mode="clip" skips the bounds pass that makes "raise" copy via a temporary
        np.take(self.X.T, columns[kept:], axis=0, out=rows[kept:], mode="clip")
        return rows.T

    def restricted(self, columns: np.ndarray) -> DesignOperator:
        """The operator of X[:, columns], in their order, on a copy made by :meth:`take`.

        On all p columns (0, 1, ..., p - 1) it is this operator, and on the
        columns of the last call (a rerun) the operator that call returned,
        with no copy.  Otherwise it is a new operator on a copy, valid until
        the next copy.  When the last call's columns are its first ones, the
        copy appends the others to the last block (:meth:`take`), and a
        formed G is the last G grown by the products with the new columns
        alone (:func:`_kernel` from that G); else both are made afresh.  An
        operator with fewer columns than rows forms its G here, on one BLAS
        thread (see :func:`one_blas_thread`); the last one had fewer columns
        still, so it formed its own.  A solve keeps W in the order its
        columns joined, so each of its rounds appends to the last; and
        :func:`least_squares` fits on this operator, so a solve's first
        round on the columns of the start's last fit reruns that fit's
        operator.  Only the operator returned last is kept.
        """
        if columns.size == self.X.shape[1]:
            self._last = None
            return self
        last = self._last
        if last is not None and np.array_equal(columns, last[0]):
            return last[1]
        grows = last is not None and np.array_equal(columns[: last[0].size], last[0])
        sub = DesignOperator(self.take(columns, last[0].size if grows else 0))
        if sub.forms_gram:
            with one_blas_thread():
                sub.kernel = _kernel(sub.X.T, last[1].kernel if grows else None)
        self._last = columns, sub
        return sub

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
        XT = self.X.T
        if self._scratch is None:
            self._scratch = np.empty((RESTRICTED_ROWS, XT.shape[1]))
        scratch, out = self._scratch, np.zeros(XT.shape[1])
        for start in range(0, support.size, RESTRICTED_ROWS):
            chunk = support[start : start + RESTRICTED_ROWS]
            rows = scratch[: chunk.size]
            np.take(XT, chunk, axis=0, out=rows, mode="clip")
            out += v[chunk] @ rows
        return out

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

    @property
    def forms_gram(self) -> bool:
        """Whether :meth:`gram_matvec` uses the formed G: X has fewer columns than rows."""
        n, p = self.X.shape
        return p < n

    @cached_property
    def kernel(self) -> np.ndarray:
        """G = X^T X, formed by :func:`_kernel` on first use."""
        return _kernel(self.X.T)

    def gram_matvec(self, v: np.ndarray) -> np.ndarray:
        """G v: from the formed G when p < n, else as X^T (X v) (X v as :meth:`matvec`)."""
        return self.kernel @ v if self.forms_gram else self.rmatvec(self.matvec(v))


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

    LAPACK's blocked routines split their work by the thread count, and so
    do OpenBLAS's products with a small matrix such as a round's G (its
    matrix-vector products with X, and with a block of X, do not).  So a
    factorization or a product with G run under one thread gives the same
    bytes whatever the process's count.
    """
    previous = set_blas_threads(1)
    try:
        yield
    finally:
        if previous is not None:
            set_blas_threads(previous)


def least_squares(design: DesignOperator, y: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """The p-vector b that minimizes ||y - X b||_2 with b zero off ``columns``.

    X is ``design.X``.  On the columns, with B = X[:, columns], it solves
    the normal equations B^T B b = B^T y by the Cholesky factor of B^T B
    when :func:`_normal_equations` finds B well-conditioned, and is LAPACK's
    minimum-norm least-squares answer (np.linalg.lstsq, an SVD) otherwise,
    also when B is rank-deficient or has more columns than rows.  At
    720 x 80 (one thread) the normal equations took 0.4-0.7 ms and lstsq
    1.9-3.3 ms, and their answers differed by 3e-15 relative.  It runs on one
    BLAS thread (see :func:`one_blas_thread`), so its bytes do not depend on
    the thread count.  B and B^T B are those of the operator that
    :meth:`DesignOperator.restricted` makes for the columns, which ``design``
    keeps for its next call: a solve's first round on the same columns
    copies nothing and forms no G.  A square B, which forms no G for its
    products, forms it here (:attr:`DesignOperator.kernel`).
    """
    b = np.zeros(design.X.shape[1])
    if columns.size:
        sub = design.restricted(columns)  # a copy, or X itself on all p columns
        with one_blas_thread():
            fit = None
            if columns.size <= sub.X.shape[0]:
                fit = _normal_equations(sub.X, sub.kernel, y)
            if fit is None:
                fit, *_ = np.linalg.lstsq(sub.X, y, rcond=None)
            b[columns] = fit
    return b


def _normal_equations(block: np.ndarray, gram: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """argmin ||y - block b||_2 from the Cholesky factor L of gram = block^T block, or None.

    The block has no more columns than rows.  The normal equations' answer
    carries a relative error of about cond(block)^2 u, u = 2^-53 (Bjorck,
    Numerical Methods for Least Squares Problems, SIAM 1996, 2.2).  So it is
    None when np.linalg.cholesky fails, or when kappa =
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
    try:
        factor = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return None
    inverse = np.linalg.inv(factor)
    if not np.sqrt(np.trace(gram)) * np.linalg.norm(inverse) <= NORMAL_EQUATIONS_MAX_CONDITION:
        return None
    return inverse.T @ (inverse @ (block.T @ y))


def _kernel(A: np.ndarray, known: np.ndarray | None = None) -> np.ndarray:
    """A A^T, exactly symmetric, formed in blocks of 64 columns; a row-major array.

    The Gram matrix of :attr:`DesignOperator.kernel`, G = X^T X from
    A = X^T, and the one routine that forms one.  ``known``, when given, is
    A[:k] A[:k]^T, its leading k x k block, copied and not formed again: a
    round of :func:`~dantzig_adm.adm.solve` whose W appends k' columns to
    the last round's k makes about k' (k + k' / 2) n multiply-adds, against
    (k + k')^2 n / 2 afresh.  Each block of 64 columns past k fills its
    column of the lower triangle, G[j:, j:j+64] = A[j:] A[j:j+64]^T, and
    above it G[:k, j:j+64] = A[:k] A[j:j+64]^T, each written by the product
    straight into G (no temporary and no copy), and both are mirrored, since
    each G v reads all of G.  G is written in A's own order: at 720 x 150 it
    took 0.89 ms row-major and 1.0 ms column-major (OpenBLAS 0.3.31, one
    thread), with the same bytes.  A column-major G is returned as its
    transpose, which equals G entry for entry.  Small blocks keep OpenBLAS's
    packing buffer small: it grows with the width of the product and stays
    resident.  A round's G left fewer pages resident row-major than
    column-major (see README "Memory").
    """
    m = A.shape[0]
    k = 0 if known is None else known.shape[0]
    G = np.empty((m, m), order="F" if A.flags.f_contiguous else "C")
    if k:
        G[:k, :k] = known
    for start in range(k, m, 64):
        stop = min(start + 64, m)
        if k:
            np.matmul(A[:k], A[start:stop].T, out=G[:k, start:stop])
            G[start:stop, :k] = G[:k, start:stop].T
        np.matmul(A[start:], A[start:stop].T, out=G[start:, start:stop])
        G[start:stop, stop:] = G[stop:, start:stop].T
        # the diagonal block keeps its lower triangle, so G is exactly symmetric
        top = G[start:stop, start:stop]
        G[start:stop, start:stop] = np.tril(top) + np.tril(top, -1).T
    return G.T if G.flags.f_contiguous else G


def apply_gram(inst: Instance, v: np.ndarray) -> np.ndarray:
    """Apply the Gram operator v -> X^T (X v) as two matrix-vector products.

    X v takes the support-restricted path of :meth:`DesignOperator.matvec`
    when at most half of v is nonzero.  The certificate of
    :func:`~dantzig_adm.evaluation.feasibility_report` makes all of its
    products with it; a solve makes its own through its one operator.
    """
    design = DesignOperator(inst.X)
    return design.rmatvec(design.matvec(v))


def soft_thresh(v: np.ndarray, gamma: float) -> np.ndarray:
    """Entrywise sgn(v) * max(|v| - gamma, 0), the prox of gamma * ||.||_1.

    Entries with |v_i| <= gamma map exactly to zero.  Formed in one new
    array, the factor sgn(v) last: a product commutes, so the bytes, signed
    zeros included, are those of the formula.
    """
    out = np.abs(v)
    out -= gamma
    np.maximum(out, 0.0, out=out)
    out *= np.sign(v)
    return out


def box_clamp(w: np.ndarray, bound: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Entrywise clamp of w onto the box [lower_j, bound_j], lower = -bound.

    The bytes are those of np.clip(w, -bound, bound), NaN, infinities and
    signed zeros included.
    """
    return np.minimum(np.maximum(w, lower), bound)
