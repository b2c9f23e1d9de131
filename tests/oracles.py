"""Independent reference computations used to cross-check the solver.

Everything here deliberately avoids the library's own code paths: dense Gram
matrices are formed explicitly, prox/projection values come from scalar
minimization, and optima of tiny problems come from exhaustive enumeration of
basic solutions of the equivalent linear programs, and at larger sizes from
scipy's HiGHS.  The exceptions are :func:`inner_problem`, which builds an
inner problem the way only tests do, from a fresh Gram product, and
:func:`screened_start`, the library's default start on an operator and a
column buffer of its own.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np
from scipy import sparse
from scipy.optimize import linprog, minimize_scalar


def dense_gram(X: np.ndarray) -> np.ndarray:
    return np.asarray(X).T @ np.asarray(X)


def shrink(v: np.ndarray, gamma: float) -> np.ndarray:
    """Soft threshold in the max/min form (independent of the library's sign form)."""
    v = np.asarray(v, dtype=np.float64)
    return np.maximum(0.0, v - gamma) + np.minimum(0.0, v + gamma)


def soft_thresh_formula(v: np.ndarray, gamma: float) -> np.ndarray:
    """sgn(v) * max(|v| - gamma, 0) as one expression: the form core.soft_thresh replaced."""
    return np.sign(v) * np.maximum(np.abs(v) - gamma, 0.0)


def top_by_argsort(scores: np.ndarray, k: int) -> np.ndarray:
    """The first k of a stable argsort of -scores, ascending: the ranking adm._top replaced."""
    return np.sort(np.argsort(-scores, kind="stable")[:k])


def termination_metric_norm(u: np.ndarray, grad: np.ndarray, penalized: float) -> float:
    """||SoftThresh(u - grad, 1) - u||_2 / max(penalized, 1) by np.linalg.norm and the formula."""
    step = soft_thresh_formula(u - grad, 1.0) - u
    return float(np.linalg.norm(step)) / max(penalized, 1.0)


def direction_formula(u: np.ndarray, bar_alpha: float, grad: np.ndarray):
    """(d, Delta) with d = SoftThresh(u - bar_alpha grad, bar_alpha) - u formed at every
    steplength and ||u||_1 summed afresh: the form subsolver.search_direction replaced."""
    target = soft_thresh_formula(u - bar_alpha * grad, bar_alpha)
    d = target - u
    return d, float(grad @ d) + float(np.abs(target).sum()) - float(np.abs(u).sum())


def scaled_trial(obj, point, alpha: float, d: np.ndarray, e: np.ndarray):
    """(u + alpha d, E + alpha e, r0 + E + alpha e), multiplied by alpha even at alpha = 1."""
    shift = point.shift + alpha * e
    return point.u + alpha * d, shift, obj.r0 + shift


def clip_formula(w: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """np.clip(w, -bound, bound): the form core.box_clamp replaced."""
    return np.clip(w, -bound, bound)


def z_update_formula(inst, lam: np.ndarray, mu: float, gram_beta: np.ndarray):
    """(z, w - z) with w = G beta - X^T y + lambda/mu clipped: the form adm.update_z replaced."""
    w = gram_beta - inst.xty + lam / mu
    z = clip_formula(w, inst.delta * inst.d)
    return z, w - z


def constant_formula(inst, z: np.ndarray, lam: np.ndarray, mu: float) -> np.ndarray:
    """c = X^T y + z - lambda/mu, dividing lambda by mu: the form SubproblemObjective replaced."""
    return inst.xty + z - lam / mu


def slope_formula(obj, point, e: np.ndarray) -> float:
    """mu (r0 + E).e with r0 + E added afresh: the line search's slope before it was held."""
    return obj.mu * float((obj.r0 + point.shift) @ e)


def gradient_formula(obj, shift: np.ndarray) -> np.ndarray:
    """mu G (r0 + E), with r0 + E added afresh: the gradient before it was held."""
    return obj.mu * obj.design.gram_matvec(obj.r0 + shift)


def prox_l1_scalar(v: float, gamma: float) -> float:
    """argmin_w 0.5 (w - v)^2 + gamma |w| by grid search plus bounded refinement."""
    span = abs(v) + gamma + 1.0
    grid = np.linspace(-span, span, 2001)
    values = 0.5 * (grid - v) ** 2 + gamma * np.abs(grid)
    k = int(np.argmin(values))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    res = minimize_scalar(
        lambda w: 0.5 * (w - v) ** 2 + gamma * abs(w),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-14},
    )
    # the kink at 0 is a candidate the smooth refinement can miss
    best = min([float(res.x), 0.0], key=lambda w: 0.5 * (w - v) ** 2 + gamma * abs(w))
    return best


def box_project_scalar(w: float, bound: float) -> float:
    """argmin_z (z - w)^2 over |z| <= bound by bounded scalar minimization."""
    res = minimize_scalar(
        lambda z: (z - w) ** 2,
        bounds=(-bound, bound),
        method="bounded",
        options={"xatol": 1e-14},
    )
    candidates = [float(res.x), -bound, bound, min(max(w, -bound), bound)]
    return min(candidates, key=lambda z: (z - w) ** 2)


def box_lagrangian_scalar(w_j: float, lam_j: float, mu: float, bound_j: float) -> float:
    """Per-coordinate minimizer of -lam z + (mu/2) (w - z)^2 over |z| <= bound."""

    def objective(z):
        return -lam_j * z + 0.5 * mu * (w_j - z) ** 2

    res = minimize_scalar(
        objective, bounds=(-bound_j, bound_j), method="bounded", options={"xatol": 1e-14}
    )
    return min([float(res.x), -bound_j, bound_j], key=objective)


def _basic_solution_batches(G: np.ndarray, base: np.ndarray, box: np.ndarray):
    """Candidate vertices grouped by support: (cols, sols) with sols of shape k x m.

    For every support S, active row set A with |A| = |S| and every sign
    pattern, solves G[A,S] x_S = (base + signs * box)[A].  By LP theory every
    basic solution of the split-variable reformulation has this form, so
    scanning all batches visits every vertex of the feasible polyhedron.
    """
    p = G.shape[0]
    indices = range(p)
    yield np.array([], dtype=int), np.zeros((0, 1))
    for k in range(1, p + 1):
        signs = np.array(list(product((-1.0, 1.0), repeat=k))).T  # k x 2^k
        for S in combinations(indices, k):
            cols = np.array(S)
            G_cols = G[:, cols]
            for A in combinations(indices, k):
                rows = np.array(A)
                M = G_cols[rows, :]
                rhs = base[rows][:, None] + box[rows][:, None] * signs
                try:
                    sols = np.linalg.solve(M, rhs)
                except np.linalg.LinAlgError:
                    continue
                finite = np.isfinite(sols).all(axis=0)
                exact = np.abs(M @ sols - rhs).max(axis=0) <= 1e-8 * (1.0 + np.abs(rhs).max())
                keep = finite & exact
                if keep.any():
                    yield cols, sols[:, keep]


def lp_primal_enumeration(X: np.ndarray, y: np.ndarray, delta: float):
    """Dantzig selector optimum (value, argmin) by exhaustive basic-solution enumeration.

    min ||b||_1 s.t. |(X^T X b - X^T y)_j| <= delta * d_j for all j.
    """
    X = np.asarray(X, dtype=np.float64)
    G = dense_gram(X)
    h = X.T @ np.asarray(y, dtype=np.float64)
    d = np.linalg.norm(X, axis=0)
    box = delta * d
    slack = 1e-9 * (1.0 + np.abs(h).max() + box.max())
    best_value, best_x = np.inf, None
    for cols, sols in _basic_solution_batches(G, h, box):
        constraint = (G[:, cols] @ sols if cols.size else np.zeros((G.shape[0], sols.shape[1])))
        feasible = np.all(np.abs(constraint - h[:, None]) <= box[:, None] + slack, axis=0)
        if not feasible.any():
            continue
        objectives = np.abs(sols[:, feasible]).sum(axis=0)
        j = int(np.argmin(objectives))
        if objectives[j] < best_value:
            best_value = float(objectives[j])
            best_x = np.zeros(G.shape[0])
            best_x[cols] = sols[:, feasible][:, j]
    return best_value, best_x


def lp_dual_enumeration(X: np.ndarray, y: np.ndarray, delta: float):
    """Dual optimum (value, argmax) of max -y^T X l - delta ||D l||_1 s.t. ||X^T X l||_inf <= 1."""
    X = np.asarray(X, dtype=np.float64)
    G = dense_gram(X)
    h = X.T @ np.asarray(y, dtype=np.float64)
    d = np.linalg.norm(X, axis=0)
    p = G.shape[0]
    box = np.ones(p)
    best_value, best_l = -np.inf, None
    for cols, sols in _basic_solution_batches(G, np.zeros(p), box):
        constraint = (G[:, cols] @ sols if cols.size else np.zeros((p, sols.shape[1])))
        feasible = np.all(np.abs(constraint) <= 1.0 + 1e-9, axis=0)
        if not feasible.any():
            continue
        kept = sols[:, feasible]
        values = -(h[cols] @ kept) - delta * (d[cols] @ np.abs(kept))
        j = int(np.argmax(values))
        if values[j] > best_value:
            best_value = float(values[j])
            best_l = np.zeros(p)
            best_l[cols] = kept[:, j]
    return best_value, best_l


def lp_optimum(X: np.ndarray, y: np.ndarray, delta: float):
    """Dantzig selector optimum (value, beta, lambda) from scipy's HiGHS.

    The LP has variables beta+ >= 0, beta- >= 0 and a free r = X beta - y:
    min sum(beta+ + beta-) s.t. X (beta+ - beta-) - r = y and
    |D^-1 X^T r| <= delta, every matrix sparse (about 4np nonzeros).  The
    inequality rows' multipliers u+ (for <=) and u- (for >=) give the
    library's dual variable lambda = (u+ - u-) / d, which maximizes
    -y^T X lambda - delta * sum_j d_j |lambda_j| over ||X^T X lambda||_inf <= 1.
    """
    X = np.asarray(X, dtype=np.float64)
    n, p = X.shape
    d = np.linalg.norm(X, axis=0)
    design = sparse.csr_array(X)
    scaled = sparse.csr_array(X.T / d[:, None])
    zero = sparse.csr_array((p, 2 * p))
    equality = sparse.hstack([design, -design, -sparse.identity(n, format="csr")], format="csc")
    inequality = sparse.vstack(
        [sparse.hstack([zero, scaled]), sparse.hstack([zero, -scaled])], format="csc"
    )
    result = linprog(
        np.concatenate([np.ones(2 * p), np.zeros(n)]),
        A_ub=inequality,
        b_ub=np.full(2 * p, float(delta)),
        A_eq=equality,
        b_eq=np.asarray(y, dtype=np.float64),
        bounds=[(0, None)] * (2 * p) + [(None, None)] * n,
        method="highs",
    )
    if result.status != 0:
        raise RuntimeError(f"HiGHS did not reach the optimum: {result.message}")
    beta = result.x[:p] - result.x[p : 2 * p]
    marginals = result.ineqlin.marginals  # d(objective)/d(b_ub) <= 0, so u = -marginals
    lam = (marginals[p:] - marginals[:p]) / d
    return float(result.fun), beta, lam


def augmented_lagrangian_dense(X, y, z, beta, lam, mu) -> float:
    """||beta||_1 + lam . r + (mu/2) ||r||^2 with r = X^T X beta - X^T y - z, from dense X^T X."""
    X = np.asarray(X, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    r = dense_gram(X) @ beta - X.T @ np.asarray(y) - np.asarray(z)
    return float(np.abs(beta).sum()) + float(lam @ r) + 0.5 * mu * float(r @ r)


def penalized_value_dense(X, y, z, lam, mu, u) -> float:
    """f_k(u) + ||u||_1 evaluated with explicitly formed dense matrices."""
    return smooth_value_dense(X, y, z, lam, mu, u) + float(np.abs(np.asarray(u)).sum())


def smooth_value_dense(X, y, z, lam, mu, u) -> float:
    G = dense_gram(X)
    c = np.asarray(X).T @ np.asarray(y) + np.asarray(z) - np.asarray(lam) / mu
    r = G @ np.asarray(u) - c
    return 0.5 * mu * float(r @ r)


def ista_reference(X, y, z, lam, mu, u0, tol=1e-12, max_iter=2_000_000):
    """Monotone proximal-gradient (fixed step 1/L) run to a tight fixed point.

    Returns (u, penalized objective, converged flag).  Stops on a tiny prox
    displacement or when the (monotone) objective improves by less than
    1e-13 * scale over a 1000-iteration window; either certificate puts the
    remaining suboptimality orders of magnitude below the 1e-6 comparisons
    this reference backs.  Uses dense matrices and the max/min shrink form
    throughout, independent of the library path.
    """
    G = dense_gram(X)
    c = np.asarray(X).T @ np.asarray(y) + np.asarray(z) - np.asarray(lam) / mu
    M = mu * (G @ G)
    q = mu * (G @ c)
    lip = mu * float(np.linalg.eigvalsh(G).max() ** 2)
    step = 1.0 / lip

    def objective(v):
        r = G @ v - c
        return 0.5 * mu * float(r @ r) + float(np.abs(v).sum())

    u = np.array(u0, dtype=np.float64)
    converged = False
    checkpoint = objective(u)
    for it in range(max_iter):
        grad = M @ u - q
        u_next = shrink(u - step * grad, step)
        if np.abs(u_next - u).max() <= tol * max(1.0, np.abs(u).max()):
            u = u_next
            converged = True
            break
        u = u_next
        if (it + 1) % 1000 == 0:
            value = objective(u)
            if checkpoint - value <= 1e-13 * max(1.0, abs(value)):
                converged = True
                break
            checkpoint = value
    return u, objective(u), converged


def certificate_dense(X, y, delta, beta, lam) -> dict:
    """Primal violation, dual violation and duality gap from dense X^T X.

    The positive parts of max_j |(X^T X beta - X^T y)_j| / ||x_j|| - delta and
    max_j |(X^T X lam)_j| - 1, and | ||beta||_1 - d(lam) | with the dual objective
    d(lam) = -y^T X lam - delta * sum_j ||x_j|| |lam_j|; and each over its scale,
    max(||beta||_2, 1), max(||lam||_2, 1) and max(||beta||_1, 1).
    """
    X = np.asarray(X, dtype=np.float64)
    G = dense_gram(X)
    h = X.T @ np.asarray(y, dtype=np.float64)
    d = np.sqrt((X * X).sum(axis=0))
    beta = np.asarray(beta, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    dual_value = -float(h @ lam) - delta * float(d @ np.abs(lam))
    terms = {
        "primal_violation": max(float(np.abs((G @ beta - h) / d).max()) - delta, 0.0),
        "dual_violation": max(float(np.abs(G @ lam).max()) - 1.0, 0.0),
        "gap": abs(float(np.abs(beta).sum()) - dual_value),
    }
    scales = {
        "primal": max(float(np.sqrt(beta @ beta)), 1.0),
        "dual": max(float(np.sqrt(lam @ lam)), 1.0),
        "gap": max(float(np.abs(beta).sum()), 1.0),
    }
    return {
        **terms,
        "primal_ratio": terms["primal_violation"] / scales["primal"],
        "dual_ratio": terms["dual_violation"] / scales["dual"],
        "gap_ratio": terms["gap"] / scales["gap"],
    }


def random_instance_arrays(rng, n, p, delta_scale=0.5):
    """Random dense (X, y, delta) with delta a fraction of ||D^-1 X^T y||_inf."""
    X = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    d = np.linalg.norm(X, axis=0)
    level = np.abs((X.T @ y) / d).max()
    delta = delta_scale * level if level > 0 else 1.0
    return X, y, float(delta)


def instance_one_draw(spec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(X, y, d) of make_instance built the plain way, from one row-major draw.

    The design is one ``standard_normal((n, p))`` draw of the design stream,
    divided by ``norm(axis=0)`` (unit columns) or replaced by the orthonormal
    basis of its row space; y is the row-major product ``X @ beta + noise``
    and d is ``norm(ascontiguousarray(X), axis=0)``.  Every full-size step
    makes a full-size array.
    """
    from dantzig_adm.core import one_blas_thread
    from dantzig_adm.datagen import _stream, gen_signal

    g = _stream(spec.seed, "design").standard_normal((spec.n, spec.p))
    if spec.design_kind == "unit_columns":
        X = g / np.linalg.norm(g, axis=0)
    else:
        with one_blas_thread():  # as datagen's QR: its bytes follow the thread count
            q, _ = np.linalg.qr(g.T)
        X = np.ascontiguousarray(q.T[: spec.n])
    truth = gen_signal(spec)
    y = X @ truth.beta_true + truth.noise
    return X, y, np.linalg.norm(np.ascontiguousarray(X), axis=0)


def inner_problem(inst, z, lam, mu, u0, design=None):
    """The SubproblemObjective of (z, lambda, mu) warm-started at u0, its r0 from a fresh Gram product.

    r0 = X^T X u0 - (X^T y + z - lambda/mu).  The outer loop forms r0 in its
    z update instead (``adm.update_z``).  ``design`` defaults to a new
    operator on inst.X.
    """
    from dantzig_adm.core import DesignOperator, apply_gram
    from dantzig_adm.subsolver import SubproblemObjective

    r0 = apply_gram(inst, u0) - (inst.xty + z - lam / mu)
    design = DesignOperator(inst.X) if design is None else design
    return SubproblemObjective(inst, z, lam, mu, r0, design, lam / mu)


def screened_start(inst, tol=0.0):
    """The beta0 of adm._screened_start, made with an operator of its own."""
    from dantzig_adm.adm import _screened_start
    from dantzig_adm.core import DesignOperator

    return _screened_start(inst, DesignOperator(inst.X), tol)[0]
