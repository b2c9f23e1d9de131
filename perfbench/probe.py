"""Timing, answer checks and tracing around the calls into dantzig_adm.

A :class:`Probe` stands between the benchmark and the library.  It times
instance generation, each solve and each evaluation, checks every returned
answer with :mod:`certificate`, and keeps one raw record per solve.  When
tracing is on it also replaces, for the measured phase only, the module
attributes that ``adm`` and ``subsolver`` call, so every call at a layer
boundary leaves a span (name, start, end, parent) in memory, and it swaps
each instance's ``X`` for a view that counts the ``n x p`` products made with
it.  Nothing under ``src/`` is modified on disk; every replaced attribute is
put back and checked afterwards.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from certificate import certificate, passes, wrong_answers
from dantzig_adm import adm, datagen, evaluation, subsolver
from dantzig_adm.core import Instance

# (owner, attribute, span name).  ``adm`` and ``subsolver`` both bind
# ``apply_gram`` by name at import, so it is replaced in each caller.
TRACE_TARGETS = (
    (adm, "apply_gram", "core.apply_gram"),
    (subsolver, "apply_gram", "core.apply_gram"),
    (adm, "update_z", "adm.update_z"),
    (adm, "update_lambda", "adm.update_lambda"),
    (adm, "_criterion_terms", "adm.criterion"),
    (adm, "solve_subproblem", "subsolver.solve_subproblem"),
    (subsolver, "line_search", "subsolver.line_search"),
    (subsolver, "search_direction", "subsolver.search_direction"),
    (subsolver, "inner_termination_metric", "subsolver.termination"),
    (subsolver, "bb_step", "subsolver.bb_step"),
    (subsolver.SubproblemObjective, "residual", "subsolver.residual"),
)


class Tracer:
    """In-memory spans ``[name, start, end, parent, returned]``.

    ``parent`` is the index of the enclosing span in ``spans`` (-1 for a
    root); ``returned`` is False when the call raised.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1, False]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[4] = True
                return result
            finally:
                span[2] = perf_counter()
                open_spans.pop()

        traced.__wrapped__ = fn
        return traced


class Patches:
    """Attributes replaced for one run, put back by :meth:`restore`."""

    def __init__(self):
        self._replaced: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, new)
        self._replaced.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._replaced):
            setattr(owner, attr, original)

    def unrestored(self) -> list[str]:
        """Names of replaced attributes that do not hold their original value."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._replaced
            if vars(owner)[attr] is not original
        ]


class ProductCounter:
    """Number and seconds of matrix-vector products made with a counted X."""

    def __init__(self):
        self.count = 0
        self.seconds = 0.0


class CountedDesign(np.ndarray):
    """A view of X that counts and times every product with it.

    A product with a matrix of k columns counts as k products.  Any other
    operation runs on the plain array, uncounted.
    """

    counter: ProductCounter | None = None

    def __array_finalize__(self, obj):
        self.counter = getattr(obj, "counter", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = tuple(np.asarray(x) if isinstance(x, CountedDesign) else x for x in inputs)
        if ufunc is not np.matmul or method != "__call__":
            return getattr(ufunc, method)(*plain, **kwargs)
        start = perf_counter()
        result = ufunc(*plain, **kwargs)
        elapsed = perf_counter() - start
        x_first = isinstance(inputs[0], CountedDesign)
        other = plain[1] if x_first else plain[0]
        vectors = 1 if np.ndim(other) == 1 else other.shape[-1 if x_first else -2]
        self.counter.count += vectors
        self.counter.seconds += elapsed
        return result


class Probe:
    """Times, checks and records the solves of one benchmark run.

    The first correct answer is also perturbed into wrong ones, which the
    certificate must reject (``try_checker``).  With ``traced`` set,
    :meth:`install` replaces the attributes in
    :data:`TRACE_TARGETS` and every instance made through the probe counts
    its products; :meth:`restore` puts the attributes back.
    """

    def __init__(self, workload: str, tol: float, traced: bool, try_checker: bool = True):
        self.workload = workload
        self.tol = tol  # the certificate threshold, fixed by the benchmark
        self.try_checker = try_checker
        self.tracer = Tracer() if traced else None
        self.counter = ProductCounter()
        self.patches = Patches()
        self.records: list[dict] = []
        self.make_instance_s: list[float] = []
        self.evaluate_s: list[float] = []
        self.checker_live: bool | None = None  # None until wrong answers were tried
        self._solve = adm.solve
        self._make_instance = datagen.make_instance
        self._evaluate = evaluation.evaluate_solution
        self._spec = None
        if traced:
            self._solve = self.tracer.wrap("adm.solve", self._solve)
            self._make_instance = self.tracer.wrap("datagen.make_instance", self._make_instance)
            self._evaluate = self.tracer.wrap("evaluation.evaluate_solution", self._evaluate)

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    def install(self) -> None:
        if self.traced:
            for owner, attr, name in TRACE_TARGETS:
                self.patches.replace(owner, attr, self.tracer.wrap(name, getattr(owner, attr)))

    def restore(self) -> None:
        self.patches.restore()

    # --- calls into the library -------------------------------------------

    def make_instance(self, spec, delta=None):
        """datagen.make_instance, timed; the instance counts products when traced."""
        start = perf_counter()
        inst, truth = self._make_instance(spec, delta)
        self.make_instance_s.append(perf_counter() - start)
        self._spec = spec
        return self._counted(inst), truth

    def solve(self, inst: Instance, config, beta0=None, lambda0=None, callback=None):
        """adm.solve, timed, with its answer checked and recorded."""
        products = self.counter.count
        start = perf_counter()
        beta, lam, report = self._solve(inst, config, beta0, lambda0, callback)
        solve_s = perf_counter() - start
        record = self.record(inst, beta, lam, report.status, solve_s)
        record.update(
            outer=report.outer_iterations,
            inner=report.inner_iteration_total,
            subsolver_failures=report.subsolver_failures,
        )
        if self.traced:
            record["products"] = self.counter.count - products
        if self.try_checker and record["ok"] and self.checker_live is None:
            self.checker_live = self.check_checker(inst, beta, lam)
        return beta, lam, report

    def evaluate(self, inst, beta_tilde, beta_true, sigma_noise):
        """evaluation.evaluate_solution, timed; rho2 joins the last solve record."""
        start = perf_counter()
        result = self._evaluate(inst, beta_tilde, beta_true, sigma_noise)
        elapsed = perf_counter() - start
        self.evaluate_s.append(elapsed)
        self.records[-1].update(rho2=result.rho2, evaluate_s=elapsed)
        return result

    # --- answer checks -----------------------------------------------------

    def record(self, inst, beta, lam, status, solve_s) -> dict:
        """Check one answer against its certificate at self.tol and keep its raw record."""
        terms = certificate(inst.X, inst.y, inst.delta, beta, lam)
        record = {
            "workload": self.workload,
            "seed": self._spec.seed,
            "n": inst.n,
            "p": inst.p,
            "delta": inst.delta,
            "tol": self.tol,
            "status": status,
            "solve_s": solve_s,
            **terms,
            "ok": status == adm.STATUS_CONVERGED and passes(terms, self.tol),
        }
        self.records.append(record)
        return record

    def check_checker(self, inst, beta, lam) -> bool:
        """True when the certificate rejects each wrong answer made from beta."""
        return not any(
            passes(certificate(inst.X, inst.y, inst.delta, wrong, lam), self.tol)
            for wrong in wrong_answers(beta, seed=len(self.records)).values()
        )

    def _counted(self, inst: Instance) -> Instance:
        if self.traced:
            view = np.asarray(inst.X).view(CountedDesign)
            view.counter = self.counter
            object.__setattr__(inst, "X", view)
        return inst

    # --- results -----------------------------------------------------------

    def export(self) -> dict:
        """Everything the run measured, as plain data (crosses process pools)."""
        return {
            "records": self.records,
            "spans": [self.tracer.spans] if self.traced else [],
            "make_instance_s": self.make_instance_s,
            "evaluate_s": self.evaluate_s,
            "product_s": self.counter.seconds,
            "checker_live": self.checker_live,
            "unrestored": self.patches.unrestored(),
        }


def merge(exports: list[dict]) -> dict:
    """Combine the exports of several probes (one per pool task)."""
    checks = [e["checker_live"] for e in exports if e["checker_live"] is not None]
    return {
        "records": [r for e in exports for r in e["records"]],
        "spans": [s for e in exports for s in e["spans"]],
        "make_instance_s": [t for e in exports for t in e["make_instance_s"]],
        "evaluate_s": [t for e in exports for t in e["evaluate_s"]],
        "product_s": sum(e["product_s"] for e in exports),
        "checker_live": all(checks) if checks else None,
        "unrestored": sorted({name for e in exports for name in e["unrestored"]}),
    }


def span_totals(span_lists: list[list[list]]) -> dict:
    """Per span name: calls, total seconds and self seconds (children removed)."""
    totals: dict[str, list] = {}
    for spans in span_lists:
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for (name, start, end, _, _), children in zip(spans, child_s):
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - children
    return totals


def line_search_counts(span_lists: list[list[list]]) -> tuple[int, int]:
    """(accepted steps, trial evaluations) of the nonmonotone line search."""
    accepted = trials = 0
    for spans in span_lists:
        for name, _, _, parent, returned in spans:
            if name == "subsolver.line_search" and returned:
                accepted += 1
            elif name == "subsolver.residual" and parent >= 0 and spans[parent][0] == "subsolver.line_search":
                trials += 1
    return accepted, trials


def layer_metrics(data: dict, workers: int, wall_s: float) -> dict:
    """Per-layer metrics of a traced run, from :func:`merge`-shaped data."""
    records = data["records"]
    solves = len(records)
    totals = span_totals(data["spans"])

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return totals.get(name, [0, 0.0, 0.0])[2] / solves

    products = sum(r["products"] for r in records)
    product_bytes = sum(r["products"] * r["n"] * r["p"] * 8 for r in records)
    accepted, trials = line_search_counts(data["spans"])
    solve_s = [r["solve_s"] for r in records]
    return {
        "core.matvecs_per_solve": (products / solves, "count"),
        "core.apply_gram.calls_per_solve": (calls("core.apply_gram") / solves, "count"),
        "core.apply_gram.self_share": (self_s("core.apply_gram") * solves / sum(solve_s), "fraction"),
        "core.gbps_computed": (product_bytes / data["product_s"] / 1e9, "GB/s"),
        "adm.outer_iters_per_solve": (sum(r["outer"] for r in records) / solves, "count"),
        "adm.update_z.self_s": (self_s("adm.update_z"), "s"),
        "adm.update_lambda.self_s": (self_s("adm.update_lambda"), "s"),
        "adm.criterion.self_s": (self_s("adm.criterion"), "s"),
        "adm.self_s": (self_s("adm.solve"), "s"),
        "subsolver.inner_iters_per_solve": (sum(r["inner"] for r in records) / solves, "count"),
        "subsolver.failures": (sum(r["subsolver_failures"] for r in records), "count"),
        "subsolver.trials_per_solve": (trials / solves, "count"),
        "subsolver.ls_accept_ratio": (accepted / trials if trials else 1.0, "fraction"),
        "subsolver.line_search.self_s": (self_s("subsolver.line_search"), "s"),
        "subsolver.search_direction.self_s": (self_s("subsolver.search_direction"), "s"),
        "subsolver.termination.self_s": (self_s("subsolver.termination"), "s"),
        "subsolver.bb_step.self_s": (self_s("subsolver.bb_step"), "s"),
        "subsolver.self_s": (self_s("subsolver.solve_subproblem"), "s"),
        "datagen.make_instance_s": (statistics.median(data["make_instance_s"]), "s"),
        "evaluation.evaluate_s": (statistics.median(data["evaluate_s"]), "s"),
        "cli.pool_busy_frac": (sum(solve_s) / (workers * wall_s), "fraction"),
        "cli.bench_wall_s": (wall_s, "s"),
        "trace.solve_s_p50": (statistics.median(solve_s), "s"),
        "trace.spans_per_solve": (sum(len(s) for s in data["spans"]) / solves, "count"),
    }
