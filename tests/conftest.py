import tracemalloc
from collections import Counter

import numpy as np
import pytest

from dantzig_adm.core import DesignOperator


class ProductCounts:
    """Calls to each DesignOperator product, and the matmuls made with a watched X.

    ``calls`` counts matvec, rmatvec, rmatvec_pair and kernel_matvec by name
    (apply_gram goes through matvec and rmatvec; one rmatvec_pair is one
    fused pass over X), and ``on_buffer`` those of them made
    by an operator of copied columns (DesignOperator.restrict); ``copies``
    counts the restrict calls.  ``x_products`` counts every matmul with a
    watched X, and ``outside`` those made outside the operator's methods.
    """

    def __init__(self):
        self.calls = Counter()
        self.on_buffer = Counter()
        self.copies = 0
        self.views = []  # every operator restrict returned, kept alive for `is`
        self.x_products = 0
        self.outside = 0
        self.depth = 0

    def reset(self):
        self.calls.clear()
        self.on_buffer.clear()
        self.copies = self.x_products = self.outside = 0

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
            if any(self is view for view in counts.views):
                counts.on_buffer[name] += 1
            counts.depth += 1
            try:
                return original(self, *vectors)
            finally:
                counts.depth -= 1

        return method

    original_restrict = DesignOperator.restrict

    def restrict(self, columns):
        view = original_restrict(self, columns)
        if view is not None:  # None: too many columns, no copy
            counts.copies += 1
            counts.views.append(view)
        return view

    for name in ("matvec", "rmatvec", "rmatvec_pair", "kernel_matvec"):
        monkeypatch.setattr(DesignOperator, name, counting(name, getattr(DesignOperator, name)))
    monkeypatch.setattr(DesignOperator, "restrict", restrict)
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
