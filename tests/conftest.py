import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from dantzig_adm import adm
from dantzig_adm.core import DesignOperator


class ProductCounts:
    """Calls to each DesignOperator product, and the matmuls made with a watched X.

    ``calls`` counts matvec, rmatvec, rmatvec_pair and gram_matvec by name
    (apply_gram goes through matvec and rmatvec, and so does a gram_matvec
    that forms no G; one rmatvec_pair is one fused pass over X).
    ``x_products`` counts every matmul with a watched X, and ``outside``
    those made outside the operator's methods.
    """

    def __init__(self):
        self.calls = Counter()
        self.x_products = 0
        self.outside = 0
        self.depth = 0

    def reset(self):
        self.calls.clear()
        self.x_products = self.outside = 0

    @staticmethod
    def forming_kernel(inst) -> int:
        """The matmuls with X that one operator on inst.X made to form its G.

        core._kernel makes one matmul per 64 rows of G = X^T X, which is
        formed only when p < n.
        """
        return -(-inst.p // 64) if inst.p < inst.n else 0

    def watch(self, inst):
        view = inst.X.view(_CountedX)
        view.counts = self
        object.__setattr__(inst, "X", view)


class _CountedX(np.ndarray):
    """A view of X that counts the matmuls made with it."""

    counts = None

    def __array_finalize__(self, obj):
        self.counts = getattr(obj, "counts", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = tuple(np.asarray(x) if isinstance(x, _CountedX) else x for x in inputs)
        if ufunc is np.matmul and method == "__call__":
            self.counts.x_products += 1
            self.counts.outside += self.counts.depth == 0
        return getattr(ufunc, method)(*plain, **kwargs)


@pytest.fixture
def products(monkeypatch):
    """A ProductCounts fed by every DesignOperator product made during the test."""
    counts = ProductCounts()

    def counting(name, original):
        def method(self, *vectors):
            counts.calls[name] += 1
            counts.depth += 1
            try:
                return original(self, *vectors)
            finally:
                counts.depth -= 1

        return method

    for name in ("matvec", "rmatvec", "rmatvec_pair", "gram_matvec"):
        monkeypatch.setattr(DesignOperator, name, counting(name, getattr(DesignOperator, name)))
    return counts


@pytest.fixture
def traced_peak():
    """peak(fn, *args): (fn(*args), the peak bytes tracemalloc traced above its start).

    numpy reports its array buffers to tracemalloc, so the peak counts every
    array fn makes that is alive at once, whatever glibc maps.
    """

    def peak(fn, *args, **kwargs):
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start, _ = tracemalloc.get_traced_memory()
            result = fn(*args, **kwargs)
            _, top = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        return result, top - start

    return peak


def _whole_problem(inst, config, beta0=None, lambda0=None, callback=None):
    """adm's ADM loop on all of X, from solve's start: the method without column generation.

    The start is solve's (adm._start): beta0 defaults to the screened start,
    lambda0 to zeros.  Returns (beta, lambda, report); the report's
    wall_time is left at 0.
    """
    design = DesignOperator(inst.X)
    beta, lam, gram_beta, gram_lam, report = adm._start(inst, config, design, beta0, lambda0)
    beta, lam, _ = adm._adm(inst, config, design, beta, lam, gram_beta, gram_lam, report, callback,
                            math.inf, config.tol)
    return beta, lam, report


@pytest.fixture
def whole_problem():
    """whole(inst, config, beta0=None, lambda0=None, callback=None): the full method.

    What solve ran before it solved on a growing set of columns; tests of the
    ADM loop's per-iteration cost, schedule and paths call it.
    """
    return _whole_problem
