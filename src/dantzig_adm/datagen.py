"""Simulated sparse-recovery instances: Gaussian designs, signal model, defaults.

Two design families are supported: i.i.d. Gaussian matrices with columns
rescaled to unit norm, and matrices whose rows form an orthonormal basis of a
random n-dimensional row space (X X^T = I).  Signals put +-(1 + |N(0,1)|) on a
uniformly random support.  Randomness is split into named sub-streams so that
the design, support, signs, amplitudes, and noise are independently
reproducible from one seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Instance

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
        if self.sigma_noise < 0:
            raise ValueError(f"sigma_noise must be nonnegative, got {self.sigma_noise}")
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
    """Orthonormal basis of the row space of g, or raise if numerically rank-deficient."""
    n = g.shape[0]
    q, r = np.linalg.qr(g.T)
    diag = np.abs(np.diag(r))
    if diag.min() <= diag.max() * g.size * np.finfo(np.float64).eps:
        raise np.linalg.LinAlgError("row space is numerically rank-deficient")
    x = np.ascontiguousarray(q.T[:n])
    return x


def gen_design(spec: GenSpec) -> np.ndarray:
    """Draw the n x p design matrix for the requested family."""
    rng = _stream(spec.seed, "design")
    if spec.design_kind == "unit_columns":
        g = rng.standard_normal((spec.n, spec.p))
        norms = np.linalg.norm(g, axis=0)
        if np.any(norms == 0):
            raise np.linalg.LinAlgError("drew a zero column (probability-zero event)")
        g /= norms
        return g
    # orthogonal_rows: retry on (probability ~0) rank deficiency, then give up
    last_error = None
    for _ in range(4):
        g = rng.standard_normal((spec.n, spec.p))
        try:
            return _orthonormal_rows(g)
        except np.linalg.LinAlgError as exc:
            last_error = exc
    raise np.linalg.LinAlgError(
        f"could not draw a full-rank {spec.n} x {spec.p} row basis in 4 attempts"
    ) from last_error


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
    """Penalty default: 10 / (sqrt(p) delta) for unit columns, 1 / delta for orthogonal rows."""
    if design_kind not in DESIGN_KINDS:
        raise ValueError(f"design_kind must be one of {DESIGN_KINDS}, got {design_kind!r}")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if design_kind == "unit_columns":
        return 10.0 / (math.sqrt(p) * delta)
    return 1.0 / delta


def tol_rule(design_kind: str) -> float:
    """Outer tolerance paired with the mu rule: 1e-3 (unit columns) or 2e-4 (orthogonal rows)."""
    if design_kind not in DESIGN_KINDS:
        raise ValueError(f"design_kind must be one of {DESIGN_KINDS}, got {design_kind!r}")
    return 1e-3 if design_kind == "unit_columns" else 2e-4


def make_instance(spec: GenSpec, delta: float | None = None) -> tuple[Instance, GroundTruth]:
    """Generate (design, signal, noise) and assemble the solver instance.

    delta defaults to the sqrt(2 ln p) * sigma rule, which requires a positive
    noise level; pass delta explicitly for noiseless instances.
    """
    X = gen_design(spec)
    truth = gen_signal(spec)
    y = X @ truth.beta_true + truth.noise
    if delta is None:
        delta = default_delta(spec.p, spec.sigma_noise)
    return Instance(X=X, y=y, delta=delta), truth
