"""Simulated sparse-recovery instances: Gaussian designs, signal model, defaults.

Two design families are supported: i.i.d. Gaussian matrices with columns
rescaled to unit norm, and matrices whose rows form an orthonormal basis of a
random n-dimensional row space (X X^T = I).  Signals put +-(1 + |N(0,1)|) on a
uniformly random support.  Randomness is split into named sub-streams so that
the design, support, signs, amplitudes, and noise are independently
reproducible from one seed.  A design is returned in column-major order,
the order in which an Instance holds it, so building an instance copies no
X; for unit columns X is the only full-size array the build makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ROW_TILE, Instance, column_sums_of_squares, one_blas_thread, row_tiles

DESIGN_KINDS = ("unit_columns", "orthogonal_rows")

# Sub-stream order for SeedSequence(seed).spawn(); fixed so that e.g. the same
# design can be paired with different noise draws.
_STREAMS = ("design", "support", "signs", "amplitudes", "noise")


@dataclass(frozen=True)
class GenSpec:
    """Simulation recipe: sizes, sparsity, noise level, design family, seed."""

    n: int
    p: int
    s: int
    sigma_noise: float
    design_kind: str = "unit_columns"
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise ValueError(f"n and p must be positive, got n={self.n}, p={self.p}")
        if not 0 <= self.s <= self.p:
            raise ValueError(f"s must lie in [0, p], got s={self.s}, p={self.p}")
        if not 0 <= self.sigma_noise < math.inf:
            raise ValueError(
                f"sigma_noise must be nonnegative and finite, got {self.sigma_noise}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.design_kind not in DESIGN_KINDS:
            raise ValueError(f"design_kind must be one of {DESIGN_KINDS}, got {self.design_kind!r}")
        if self.design_kind == "orthogonal_rows" and self.n > self.p:
            raise ValueError(f"orthogonal_rows requires n <= p, got n={self.n}, p={self.p}")


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """True signal, its support, and the noise realization behind y."""

    beta_true: np.ndarray
    support: np.ndarray
    noise: np.ndarray


def _stream(seed: int, name: str) -> np.random.Generator:
    children = np.random.SeedSequence(seed).spawn(len(_STREAMS))
    return np.random.default_rng(children[_STREAMS.index(name)])


def _orthonormal_rows(g: np.ndarray) -> np.ndarray:
    """Column-major n x p matrix of orthonormal rows: Q^T from the QR of g^T.

    Q has orthonormal columns whatever the rank of g, so X X^T = I holds for
    every draw.  The QR runs on one BLAS thread: its blocking follows the
    thread count, and with two threads the bytes of the basis differed from
    those of one (at 200 x 1000, seeds 0 and 3).  So a seed gives one X in
    every process, a worker of ``bench`` with its one thread as well as its
    parent.
    """
    with one_blas_thread():
        q, _ = np.linalg.qr(g.T)
    return np.asfortranarray(q.T)


def _unit_columns(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    """Gaussian n x p matrix with unit columns, column-major, as from one (n, p) draw.

    The draw is made ROW_TILE rows at a time into one scratch, which gives
    the stream of ``rng.standard_normal((n, p))``, and each block is written
    into X.  The column norms are summed row by row as the blocks are drawn
    (see :func:`~dantzig_adm.core.column_sums_of_squares`), and X is divided
    in place.  So X equals the normalized row-major draw bit for bit, and
    no full-size array but X is made.
    """
    X = np.empty((p, n)).T
    scratch = np.empty((min(ROW_TILE, n), p))

    def blocks():
        for start in range(0, n, ROW_TILE):
            block = scratch[: min(ROW_TILE, n - start)]
            rng.standard_normal(out=block)
            X[start : start + ROW_TILE] = block
            yield block

    X /= np.sqrt(column_sums_of_squares(blocks(), p))
    return X


def gen_design(spec: GenSpec) -> np.ndarray:
    """Draw the n x p design matrix for the requested family, in column-major order.

    Its entries do not depend on the order: they are those of a row-major
    draw, and ``np.ascontiguousarray`` gives that array back.
    """
    rng = _stream(spec.seed, "design")
    if spec.design_kind == "unit_columns":
        return _unit_columns(rng, spec.n, spec.p)
    return _orthonormal_rows(rng.standard_normal((spec.n, spec.p)))


def gen_signal(spec: GenSpec) -> GroundTruth:
    """Sparse signal beta_j = xi_j (1 + |a_j|) on a uniform support, plus the noise draw.

    xi is Rademacher and a standard normal, so every nonzero entry has
    magnitude at least 1.
    """
    support = np.sort(_stream(spec.seed, "support").choice(spec.p, size=spec.s, replace=False))
    signs = _stream(spec.seed, "signs").integers(0, 2, size=spec.s) * 2 - 1
    amplitudes = _stream(spec.seed, "amplitudes").standard_normal(spec.s)
    beta = np.zeros(spec.p)
    beta[support] = signs * (1.0 + np.abs(amplitudes))
    noise = spec.sigma_noise * _stream(spec.seed, "noise").standard_normal(spec.n)
    return GroundTruth(beta_true=beta, support=support, noise=noise)


def default_delta(p: float, sigma_noise: float) -> float:
    """Constraint level sqrt(2 ln p) * sigma (natural logarithm)."""
    if not sigma_noise > 0:
        raise ValueError(f"sigma_noise must be positive to set delta, got {sigma_noise}")
    if not p > 1:
        raise ValueError(f"p must exceed 1, got {p}")
    return math.sqrt(2.0 * math.log(p)) * sigma_noise


def mu_rule(design_kind: str, p: int, delta: float) -> float:
    """Penalty default: 40 / (sqrt(p) delta) for unit columns, 4 / delta for orthogonal rows.

    Four times the rule 10 / (sqrt(p) delta) and 1 / delta that this package
    used before, which predates its screened start and working-set rounds.
    ADM's speed depends strongly on the penalty (Boyd et al., FnT ML 2011,
    3.4.1).  Over held-out seeds 100-129 at (720, 2560, 80), solved by
    ``scripts/ab.py`` with one BLAS thread, the factor 4 took outer
    iterations per solve from 54.2 to 30.5 (unit columns, sigma 0.05), 16.5
    to 14.1 (sigma 0.01) and 205.4 to 77.9 (orthogonal rows) against the
    old rule, and every answer was certified; README "Defaults" gives the
    sweep over the factors 2, 3, 4 and 6.
    """
    if design_kind not in DESIGN_KINDS:
        raise ValueError(f"design_kind must be one of {DESIGN_KINDS}, got {design_kind!r}")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if design_kind == "unit_columns":
        return 40.0 / (math.sqrt(p) * delta)
    return 4.0 / delta


def tol_rule(design_kind: str) -> float:
    """Outer tolerance paired with the mu rule: 1e-3 (unit columns) or 2e-4 (orthogonal rows)."""
    if design_kind not in DESIGN_KINDS:
        raise ValueError(f"design_kind must be one of {DESIGN_KINDS}, got {design_kind!r}")
    return 1e-3 if design_kind == "unit_columns" else 2e-4


def _row_major_product(X: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``np.ascontiguousarray(X) @ v`` bit for bit, from row tiles of X.

    Only the columns where v is nonzero are copied into the tiles (see
    :func:`~dantzig_adm.core.row_tiles`), so a sparse v reads few of X.
    """
    out = np.empty(X.shape[0])
    for start, tile in row_tiles(X, np.flatnonzero(v)):
        np.matmul(tile, v, out=out[start : start + tile.shape[0]])
    return out


def make_instance(spec: GenSpec, delta: float | None = None) -> tuple[Instance, GroundTruth]:
    """Generate (design, signal, noise) and assemble the solver instance.

    y is the row-major product ``np.ascontiguousarray(X) @ beta_true`` plus
    the noise, formed from row tiles of the column-major X, and X is not
    copied.

    delta defaults to the sqrt(2 ln p) * sigma rule, which requires a positive
    noise level; pass delta explicitly for noiseless instances.
    """
    X = gen_design(spec)
    truth = gen_signal(spec)
    y = _row_major_product(X, truth.beta_true) + truth.noise
    if delta is None:
        delta = default_delta(spec.p, spec.sigma_noise)
    return Instance(X=X, y=y, delta=delta), truth
