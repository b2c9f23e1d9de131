from collections import Counter

import numpy as np
import pytest

from dantzig_adm.core import DesignOperator


class ProductCounts:
    """Calls to each DesignOperator product, and the matmuls made with a watched X.

    ``calls`` counts matvec, rmatvec and kernel_matvec by name (apply_gram
    goes through matvec and rmatvec).  ``x_products`` counts every matmul
    with a watched X, and ``outside`` those made outside the operator's
    methods.
    """

    def __init__(self):
        self.calls = Counter()
        self.x_products = 0
        self.outside = 0
        self.depth = 0

    def reset(self):
        self.calls.clear()
        self.x_products = self.outside = 0

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
        def method(self, w):
            counts.calls[name] += 1
            counts.depth += 1
            try:
                return original(self, w)
            finally:
                counts.depth -= 1

        return method

    for name in ("matvec", "rmatvec", "kernel_matvec"):
        monkeypatch.setattr(DesignOperator, name, counting(name, getattr(DesignOperator, name)))
    return counts
