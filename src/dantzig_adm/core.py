"""Problem data, the design operator and shared vector primitives.

:class:`Instance` holds the problem data; :class:`DesignOperator` makes every
product with X that a solve needs: X v (from the nonzero columns of v alone
when few are nonzero, copied 64 rows of X^T at a time into a scratch array
the operator keeps), X^T w, two products X^T a and X^T b in one pass over
X, and the inner solve's products with the kernel of X's smaller side:
K = X X^T when n <= p, and G = X^T X, its Gram matrix, when p < n.  Every
product runs on numpy alone; no solve imports scipy.  :class:`ColumnBlock`
copies columns of X into one kept buffer, for the least-squares fits of
:func:`least_squares` and for :meth:`Instance.restricted`, the instance of a
few columns on which a solve runs each round.  :func:`row_tiles` reads a column-major X in
row-major tiles, from which an Instance sums ``d`` and a generated instance
forms ``y``.
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

    The p x p Gram matrix X^T X of a wide X is never formed (at n=7200,
    p=25600 it would need about 5 GB).  A solve makes its products through a
    :class:`DesignOperator`, which may form the kernel of X's smaller side
    (X X^T, or X^T X when p < n) and copy rows of X^T for that solve only;
    nothing but X^T y is cached here.  One n x p matrix-vector product is
    the solver's cost unit: an inner iteration costs at most 2 (X d, with d
    sparse, and one X^T product) plus one n x n product, however many
    line-search backtracks it takes (see :mod:`~dantzig_adm.subsolver`).  A
    solve runs its inner iterations on the instance of a block of columns
    (:meth:`restricted`), and on a block of |W| < n columns an iteration
    makes two |W| x |W| products with the block's Gram matrix in their place.
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

    def restricted(self, columns: np.ndarray, block: "ColumnBlock") -> "Instance":
        """The instance of X[:, columns] with the same y and delta.

        Its X is ``block.take(columns)``, a column-major view of the block's
        buffer, valid until the block's next copy.  Its d and X^T y are those
        of this instance on ``columns``, read off and not recomputed, and the
        copy is not checked again: no pass over X is made.
        """
        sub = object.__new__(Instance)
        for name, value in (("X", block.take(columns)), ("y", self.y), ("delta", self.delta),
                            ("d", self.d[columns])):
            object.__setattr__(sub, name, value)
        sub.__dict__["xty"] = self.xty[columns]
        return sub


class ColumnBlock:
    """Copies of X[:, columns] in one buffer that grows with the columns and is kept.

    The buffer holds rows of X^T, so each copy is one np.take and the block
    it gives is column-major.  It is allocated for twice the columns first
    asked for, and again for twice as many when a copy needs more, but for
    no more than max(p // 2, columns) columns; so a solve whose column set
    grows by a quarter per round copies into the same pages for a few
    rounds, and a block of at most p // 2 columns never allocates X's size.
    A buffer allocated per copy is mapped and faulted in afresh each time:
    113 minor faults per 720 x 80 least-squares block (glibc maps blocks
    past its 128 KiB threshold).  Only the pages a copy writes become
    resident.
    """

    def __init__(self, X: np.ndarray):
        self.X = X
        self._rows: np.ndarray | None = None

    def take(self, columns: np.ndarray) -> np.ndarray:
        """X[:, columns], n x |columns| and column-major; valid until the next call."""
        n, p = self.X.shape
        if self._rows is None or self._rows.shape[0] < columns.size:
            self._rows = np.empty((min(2 * columns.size, max(p // 2, columns.size)), n))
        rows = self._rows[: columns.size]
        # mode="clip" skips the bounds pass that makes "raise" copy via a temporary
        np.take(self.X.T, columns, axis=0, out=rows, mode="clip")
        return rows.T


class DesignOperator:
    """The products with X that one solve makes, and those of its inner solves.

    Besides X v and X^T w, the inner solver (see :mod:`~dantzig_adm.subsolver`)
    needs products with G = X^T X only, and it makes them in the space of X's
    smaller side.  When n <= p that is n-space, with the n x n kernel
    K = X X^T: an iteration makes X d, K (X d) and one X^T product.  When
    p < n it is the Gram space, with G itself as the kernel: an iteration
    makes G d and one more product with G, and none with X.  Either way the
    kernel (:attr:`kernel`) takes min(n, p)^2 entries, no more than X, and is
    formed once, on its first product, and kept for the life of the
    operator.  The four inner-solve products (:meth:`start_product`,
    :meth:`direction_products`, :meth:`gradient_product` and
    :meth:`residual_product`) hold the one choice of space, so the inner
    loop makes none.  An operator is built for one solve (or one round of
    it) and dropped on return; it is not cached on the Instance, whose
    memory stays that of X.
    """

    def __init__(self, X: np.ndarray):
        self.X = X
        self._scratch: np.ndarray | None = None  # RESTRICTED_ROWS rows of X^T

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
    def gram_space(self) -> bool:
        """Whether the inner solve runs in the Gram space: X has fewer columns than rows."""
        n, p = self.X.shape
        return p < n

    @cached_property
    def kernel(self) -> np.ndarray:
        """The inner solve's kernel: G = X^T X in the Gram space, else K = X X^T.

        Formed by :func:`_kernel` on first use.
        """
        return _kernel(self.X.T if self.gram_space else self.X)

    def kernel_matvec(self, w: np.ndarray) -> np.ndarray:
        """K w, or G w in the Gram space."""
        return self.kernel @ w

    def start_product(self, r0: np.ndarray) -> np.ndarray:
        """q0 of an inner solve whose warm start has the residual r0.

        X r0 in n-space (support-restricted, see :meth:`matvec`), and r0
        itself in the Gram space, at no cost.
        """
        return r0 if self.gram_space else self.matvec(r0)

    def direction_products(self, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(e, K e) for a search direction d of the inner solve.

        (X d, K X d) in n-space; in the Gram space e = G d and K e is e
        itself, one product with G.
        """
        if self.gram_space:
            e = self.kernel_matvec(d)
            return e, e
        e = self.matvec(d)
        return e, self.kernel_matvec(e)

    def gradient_product(self, v: np.ndarray) -> np.ndarray:
        """X^T v in n-space, G v in the Gram space: the gradient over mu at v = q0 + K E."""
        return self.kernel_matvec(v) if self.gram_space else self.rmatvec(v)

    def residual_product(self, shift: np.ndarray) -> np.ndarray:
        """G (u - u0) from the shift E of the inner solve.

        X^T E in n-space, where E = X (u - u0); in the Gram space E is
        G (u - u0) already, and no product is made.
        """
        return shift if self.gram_space else self.rmatvec(shift)


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

    LAPACK's blocked routines split their work by the thread count, so a
    factorization run under one thread gives the same bytes in every process.
    """
    previous = set_blas_threads(1)
    try:
        yield
    finally:
        if previous is not None:
            set_blas_threads(previous)


def least_squares(
    X: np.ndarray, y: np.ndarray, columns: np.ndarray, block: ColumnBlock | None = None
) -> np.ndarray:
    """The p-vector b that minimizes ||y - X b||_2 with b zero off ``columns``.

    On the columns, with B = X[:, columns], it solves the normal equations
    B^T B b = B^T y by the Cholesky factor of B^T B when
    :func:`_normal_equations` finds B well-conditioned, and is LAPACK's
    minimum-norm least-squares answer (np.linalg.lstsq, an SVD) otherwise,
    also when B is rank-deficient or has more columns than rows.  At
    720 x 80 (one thread) the normal equations took 0.4-0.7 ms and lstsq
    1.9-3.3 ms, and their answers differed by 3e-15 relative.  It runs on one
    BLAS thread (see :func:`one_blas_thread`), so its bytes do not depend on
    the thread count.  B is copied into ``block``, a :class:`ColumnBlock` of
    X, when one is given, and into a new array otherwise.  For a
    column-major X both copies are column-major, and the answer's bytes are
    the same.
    """
    b = np.zeros(X.shape[1])
    if columns.size:
        # a plain copy: its products are not with X
        block = np.asarray(X[:, columns]) if block is None else block.take(columns)
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


def _kernel(A: np.ndarray) -> np.ndarray:
    """A A^T, exactly symmetric, formed in blocks of 64 columns; a row-major array.

    The kernel of :attr:`DesignOperator.kernel`: K = X X^T from A = X, and
    G = X^T X from A = X^T.  Each block fills one column block of the lower
    triangle, K[j:, j:j+64] = A[j:] A[j:j+64]^T, written by the product
    straight into K (no temporary and no copy), and is mirrored into the
    rows above, since each K w reads all of K.  K is written in A's own
    order: K = X X^T of a column-major X at 720 x 2560 took 42 ms
    column-major and 57 ms row-major, G = X^T X at 720 x 150 0.89 ms
    row-major and 1.0 ms column-major (OpenBLAS 0.3.31, one thread), with
    the same bytes.  A column-major K is returned as its transpose, which
    equals K entry for entry.  Small blocks keep OpenBLAS's packing buffer
    small: it grows with the width of the product and stays resident.  Over
    a run of 720 x 2560 solves, one X @ X.T raised the peak resident size by
    2.8%, blocks of 64 by 0.4%; a round's G left fewer pages resident
    row-major than column-major (see README "Memory").
    """
    m = A.shape[0]
    K = np.empty((m, m), order="F" if A.flags.f_contiguous else "C")
    for start in range(0, m, 64):
        stop = min(start + 64, m)
        np.matmul(A[start:], A[start:stop].T, out=K[start:, start:stop])
        K[start:stop, stop:] = K[stop:, start:stop].T
        # the diagonal block keeps its lower triangle, so K is exactly symmetric
        top = K[start:stop, start:stop]
        K[start:stop, start:stop] = np.tril(top) + np.tril(top, -1).T
    return K.T if K.flags.f_contiguous else K


def apply_gram(inst: Instance, v: np.ndarray) -> np.ndarray:
    """Apply the Gram operator v -> X^T (X v) as two matrix-vector products.

    X v takes the support-restricted path of :meth:`DesignOperator.matvec`
    when at most half of v is nonzero.  The outer loop uses this for the
    products the inner solver does not hand back, and the certificate of
    :func:`~dantzig_adm.evaluation.feasibility_report` for all of its own.
    """
    design = DesignOperator(inst.X)
    return design.rmatvec(design.matvec(v))


def soft_thresh(v: np.ndarray, gamma: float) -> np.ndarray:
    """Entrywise sgn(v) * max(|v| - gamma, 0), the prox of gamma * ||.||_1.

    Entries with |v_i| <= gamma map exactly to zero.
    """
    return np.sign(v) * np.maximum(np.abs(v) - gamma, 0.0)


def box_clamp(w: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Entrywise clamp of w onto the box [-bound_j, bound_j]."""
    return np.clip(w, -bound, bound)
