import os
import re
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dantzig_adm.core as core_module
from dantzig_adm.core import (
    FUSED_ROWS,
    DesignOperator,
    Instance,
    apply_gram,
    box_clamp,
    soft_thresh,
)
from dantzig_adm.datagen import GenSpec, make_instance

from oracles import (box_project_scalar, clip_formula, dense_gram, prox_l1_scalar,
                     soft_thresh_formula)


def _random_instance(rng, n=5, p=8):
    X = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    return Instance(X=X, y=y, delta=0.5)


finite_vectors = hnp.arrays(
    np.float64,
    st.integers(1, 12),
    elements=st.floats(-10, 10, allow_nan=False, allow_infinity=False),
)


class TestInstance:
    def test_column_norms_cached(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 9))
        inst = Instance(X=X, y=rng.standard_normal(6), delta=1.0)
        expected = np.linalg.norm(X, axis=0)
        assert np.allclose(inst.d, expected, rtol=1e-12)
        assert inst.n == 6 and inst.p == 9

    @pytest.mark.parametrize("delta", [0.0, -1.0, np.nan, np.inf])
    def test_bad_delta_rejected(self, delta):
        with pytest.raises(ValueError):
            Instance(X=np.eye(3), y=np.zeros(3), delta=delta)

    def test_nonfinite_entries_rejected(self):
        X = np.eye(3)
        with pytest.raises(ValueError):
            Instance(X=X, y=np.array([0.0, np.nan, 0.0]), delta=1.0)
        bad = X.copy()
        bad[1, 1] = np.inf
        with pytest.raises(ValueError):
            Instance(X=bad, y=np.zeros(3), delta=1.0)

    def test_zero_column_rejected(self):
        X = np.eye(3)
        X[:, 2] = 0.0
        with pytest.raises(ValueError):
            Instance(X=X, y=np.zeros(3), delta=1.0)

    @pytest.mark.parametrize("shape", [(5, 0), (0, 0), (0, 5), (5,)])
    def test_empty_or_non_matrix_x_rejected(self, shape):
        # the message opens with X, which the CLI maps to X.mtx
        message = f"X must be a nonempty 2-d matrix, got shape {shape}"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            Instance(X=np.zeros(shape), y=np.zeros(shape[0]), delta=1.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Instance(X=np.eye(3), y=np.zeros(4), delta=1.0)


class TestApplyGram:
    def test_zero_maps_to_zero(self):
        inst = _random_instance(np.random.default_rng(1))
        assert np.array_equal(apply_gram(inst, np.zeros(inst.p)), np.zeros(inst.p))

    def test_identity_design_is_identity(self):
        rng = np.random.default_rng(2)
        inst = Instance(X=np.eye(7), y=np.zeros(7), delta=1.0)
        v = rng.standard_normal(7)
        assert np.allclose(apply_gram(inst, v), v, atol=1e-14)

    def test_matches_dense_gram_columns(self):
        rng = np.random.default_rng(3)
        inst = _random_instance(rng, n=5, p=8)
        G = dense_gram(inst.X)
        for j in range(inst.p):
            e = np.zeros(inst.p)
            e[j] = 1.0
            got = apply_gram(inst, e)
            assert np.allclose(got, G[:, j], rtol=1e-10, atol=1e-12)

    def test_dimension_mismatch(self):
        inst = _random_instance(np.random.default_rng(4))
        with pytest.raises(ValueError):
            apply_gram(inst, np.zeros(inst.p + 1))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 20), p=st.integers(1, 20))
    def test_agrees_with_dense_gram(self, seed, n, p):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, p))
        if np.any(np.linalg.norm(X, axis=0) == 0):
            return
        inst = Instance(X=X, y=rng.standard_normal(n), delta=1.0)
        v = rng.standard_normal(p)
        dense = dense_gram(X) @ v
        got = apply_gram(inst, v)
        assert np.allclose(got, dense, rtol=1e-10, atol=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_symmetric_bilinear_form(self, seed):
        rng = np.random.default_rng(seed)
        inst = _random_instance(rng, n=6, p=10)
        u = rng.standard_normal(inst.p)
        v = rng.standard_normal(inst.p)
        left = u @ apply_gram(inst, v)
        right = v @ apply_gram(inst, u)
        assert left == pytest.approx(right, rel=1e-10, abs=1e-10)



def _support_vector(rng, p, k):
    v = np.zeros(p)
    support = rng.choice(p, size=k, replace=False)
    v[support] = rng.standard_normal(k)
    return v


def _assert_gram_matches_dense(inst, X, v):
    """apply_gram against X^T (X v) to 1e-12, relative to the entrywise error scale."""
    got = apply_gram(inst, v)
    dense = X.T @ (X @ v)
    scale = float((np.abs(X).T @ (np.abs(X) @ np.abs(v))).max())
    assert np.abs(got - dense).max() <= 1e-12 * max(scale, np.finfo(float).tiny)


@contextmanager
def _restricted_products(min_entries=None):
    """Count the restricted products; optionally lower the size from which they are used."""
    made = [0]
    original = DesignOperator._restricted_matvec

    def counting(self, *args, **kwargs):
        made[0] += 1
        return original(self, *args, **kwargs)

    with mock.patch.object(DesignOperator, "_restricted_matvec", counting):
        if min_entries is None:
            yield made
        else:
            with mock.patch.object(core_module, "RESTRICTED_MIN_ENTRIES", min_entries):
                yield made


_SUPPORT_SIZES = {
    "zero": lambda p: 0,
    "one": lambda p: min(1, p),
    "half": lambda p: p // 2,
    "half_plus_one": lambda p: min(p // 2 + 1, p),
    "full": lambda p: p,
}


class TestRestrictedGram:
    """X v from the nonzero columns only (at most half of v nonzero) matches the dense product."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 30),
        p=st.integers(1, 30),
        size=st.sampled_from(sorted(_SUPPORT_SIZES)),
    )
    def test_agrees_with_dense_product(self, seed, n, p, size):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, p))
        inst = Instance(X=X, y=rng.standard_normal(n), delta=1.0)
        k = _SUPPORT_SIZES[size](p)
        with _restricted_products(min_entries=0) as made:
            _assert_gram_matches_dense(inst, X, _support_vector(rng, p, k))
        assert made[0] == (2 * k <= p)

    @pytest.mark.parametrize("k", [1, 2, 5, 6, 12])
    def test_duplicate_columns(self, k):
        rng = np.random.default_rng(40 + k)
        X = rng.standard_normal((7, 12))
        X[:, 3] = X[:, 8]
        X[:, 0] = X[:, 11]
        inst = Instance(X=X, y=np.zeros(7), delta=1.0)
        v = _support_vector(rng, 12, k)
        v[[3, 8]] = rng.standard_normal(2)
        with _restricted_products(min_entries=0):
            _assert_gram_matches_dense(inst, X, v)

    @pytest.mark.parametrize("k", [0, 1, 3, 4, 8])
    def test_more_rows_than_columns(self, k):
        rng = np.random.default_rng(50 + k)
        X = rng.standard_normal((40, 8))
        inst = Instance(X=X, y=rng.standard_normal(40), delta=1.0)
        with _restricted_products(min_entries=0):
            _assert_gram_matches_dense(inst, X, _support_vector(rng, 8, k))

    @pytest.mark.parametrize("size", sorted(_SUPPORT_SIZES))
    def test_large_design_switches_at_half_support(self, size):
        rng = np.random.default_rng(44)
        n, p = 450, 600  # 270000 entries, above RESTRICTED_MIN_ENTRIES
        X = rng.standard_normal((n, p))
        inst = Instance(X=X, y=np.zeros(n), delta=1.0)
        k = _SUPPORT_SIZES[size](p)
        with _restricted_products() as made:
            _assert_gram_matches_dense(inst, X, _support_vector(rng, p, k))
        assert made[0] == (2 * k <= p)

    def test_small_design_uses_the_dense_product(self):
        rng = np.random.default_rng(45)
        inst = _random_instance(rng, n=9, p=16)
        with _restricted_products() as made:
            apply_gram(inst, _support_vector(rng, 16, 2))
        assert made[0] == 0

    def test_empty_support_is_exact_zero(self):
        inst = _random_instance(np.random.default_rng(41), n=9, p=16)
        with _restricted_products(min_entries=0) as made:
            assert np.array_equal(apply_gram(inst, np.zeros(16)), np.zeros(16))
        assert made[0] == 1


def _assert_matvec_matches_dense(design, X, v):
    """design.matvec(v) against X v to 1e-12, relative to the entrywise error scale."""
    got = design.matvec(v)
    scale = float((np.abs(X) @ np.abs(v)).max())
    assert np.abs(got - X @ v).max() <= 1e-12 * max(scale, np.finfo(float).tiny)


class TestRestrictedChunks:
    """The restricted X v copies RESTRICTED_ROWS rows of X^T at a time into one kept scratch."""

    @pytest.mark.parametrize("k", [63, 64, 65, 128, 129])  # around one and two whole chunks
    def test_chunk_edges_match_dense_product(self, k):
        assert core_module.RESTRICTED_ROWS == 64
        rng = np.random.default_rng(70 + k)
        X = rng.standard_normal((450, 600))  # 270000 entries, above RESTRICTED_MIN_ENTRIES
        design = DesignOperator(Instance(X=X, y=np.zeros(450), delta=1.0).X)
        with _restricted_products() as made:
            _assert_matvec_matches_dense(design, X, _support_vector(rng, 600, k))
        assert made[0] == 1

    @pytest.mark.parametrize("k", [1, 64, 129, 300])
    def test_restricted_operator_matches_dense_product(self, k):
        rng = np.random.default_rng(80 + k)
        X = rng.standard_normal((450, 2400))
        design = DesignOperator(Instance(X=X, y=np.zeros(450), delta=1.0).X)
        columns = np.sort(rng.choice(2400, size=600, replace=False))
        restricted = design.restricted(columns)
        assert restricted.X.size >= core_module.RESTRICTED_MIN_ENTRIES
        with _restricted_products() as made:
            _assert_matvec_matches_dense(restricted, X[:, columns], _support_vector(rng, 600, k))
        assert made[0] == 1

    def test_scratch_is_allocated_once(self):
        rng = np.random.default_rng(90)
        X = rng.standard_normal((450, 2400))
        design = DesignOperator(Instance(X=X, y=np.zeros(450), delta=1.0).X)
        first = design.matvec(_support_vector(rng, 2400, 100))
        scratch = design._scratch
        assert scratch.shape == (core_module.RESTRICTED_ROWS, 450)
        second = design.matvec(_support_vector(rng, 2400, 200))
        assert design._scratch is scratch
        assert not np.shares_memory(first, second) and not np.shares_memory(second, scratch)


class TestDesignOperator:
    @pytest.mark.parametrize("n, p", [(5, 1), (90, 64), (200, 65), (720, 150)])
    def test_gram_kernel_is_xt_x_and_exactly_symmetric(self, n, p):
        # p < n: the kernel is G = X^T X, p x p, in blocks of 64 of its
        # columns; 65 and 150 columns leave a partial last block
        rng = np.random.default_rng(n + p)
        X = rng.standard_normal((n, p))
        expected = X.T @ X
        design = DesignOperator(Instance(X=X, y=np.zeros(n), delta=1.0).X)
        assert design.forms_gram
        G = design.kernel
        assert G.shape == (p, p) and G.flags.c_contiguous
        assert np.abs(G - expected).max() <= 1e-12 * np.abs(expected).max()
        assert np.array_equal(G, G.T)

    def test_kernel_is_formed_once(self):
        rng = np.random.default_rng(3)
        design = DesignOperator(rng.standard_normal((9, 5)))
        first = design.kernel
        design.gram_matvec(np.ones(5))
        assert design.kernel is first

    @pytest.mark.parametrize("n, p", [(6, 10), (10, 10), (14, 6)])
    def test_products_match_dense(self, n, p):
        rng = np.random.default_rng(60 + n)
        X = rng.standard_normal((n, p))
        design = DesignOperator(Instance(X=X, y=np.zeros(n), delta=1.0).X)
        v = rng.standard_normal(p)
        w = rng.standard_normal(n)
        np.testing.assert_allclose(design.matvec(v), X @ v, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(design.rmatvec(w), X.T @ w, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(design.gram_matvec(v), X.T @ (X @ v), rtol=1e-12, atol=1e-12)
        # G is formed only when it is smaller than X
        assert ("kernel" in vars(design)) == (p < n)

    @pytest.mark.parametrize("n, p", [(6, 10), (10, 10), (14, 6)])
    def test_inner_products_give_the_gram_identities(self, n, p):
        # with a formed G and as X^T (X v), with r = r0 + E and E = G s: the
        # gradient product of r is G r, the slope r.e is r.G d and the
        # curvature e.e is ||G d||^2, e = G d
        rng = np.random.default_rng(90 + n + p)
        X = rng.standard_normal((n, p))
        G = X.T @ X
        design = DesignOperator(Instance(X=X, y=np.zeros(n), delta=1.0).X)
        r0, step, d = (rng.standard_normal(p) for _ in range(3))
        shift, e = design.gram_matvec(step), design.gram_matvec(d)
        r = r0 + G @ step
        close = dict(rtol=1e-12, atol=1e-12 * np.abs(G).max() ** 2)
        np.testing.assert_allclose(shift, G @ step, **close)
        np.testing.assert_allclose(design.gram_matvec(r0 + shift), G @ r, **close)
        assert float((r0 + shift) @ e) == pytest.approx(float(r @ (G @ d)), rel=1e-12)
        assert float(e @ e) == pytest.approx(float(np.sum((G @ d) ** 2)), rel=1e-12)

    def test_take_copies_columns_into_one_buffer(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((9, 40))
        block = DesignOperator(Instance(X=X, y=np.zeros(9), delta=1.0).X)
        columns = np.array([1, 5, 7, 30])
        first = block.take(columns)
        np.testing.assert_array_equal(first, X[:, columns])
        assert first.flags.f_contiguous
        design = DesignOperator(first)
        v, w = rng.standard_normal(columns.size), rng.standard_normal(9)
        np.testing.assert_allclose(design.matvec(v), X[:, columns] @ v, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(design.rmatvec(w), X[:, columns].T @ w, rtol=1e-12, atol=1e-12)
        second = block.take(np.arange(8))  # twice the first columns still fit
        assert np.shares_memory(first, second)
        np.testing.assert_array_equal(second, X[:, :8])
        third = block.take(np.arange(9))  # one more allocates a larger buffer
        assert not np.shares_memory(second, third)
        np.testing.assert_array_equal(third, X[:, :9])
        assert block._rows.shape == (18, 9)

    def test_restricted_instance_reads_its_norms_and_correlations_off(self):
        rng = np.random.default_rng(8)
        X, y = rng.standard_normal((9, 40)), rng.standard_normal(9)
        inst = Instance(X=X, y=y, delta=0.7)
        columns = np.array([0, 3, 17, 39])
        sub = inst.restricted(columns, DesignOperator(inst.X).take(columns))
        np.testing.assert_array_equal(sub.X, X[:, columns])
        assert sub.y is inst.y and sub.delta == inst.delta
        assert np.array_equal(sub.d, inst.d[columns])
        assert np.array_equal(sub.xty, inst.xty[columns])
        assert (sub.n, sub.p) == (9, 4)

    def test_restricted_instance_makes_no_product_with_x(self, products):
        # X^T y came with the instance, so the restricted one reads it off
        rng = np.random.default_rng(9)
        inst = Instance(X=rng.standard_normal((9, 40)), y=rng.standard_normal(9), delta=0.7)
        columns = np.array([1, 5, 30])
        block = DesignOperator(inst.X).take(columns)
        products.watch(inst)
        sub = inst.restricted(columns, block)
        assert np.array_equal(sub.xty, inst.xty[columns]) and sub.X is block
        assert products.x_products == 0

    def test_take_copies_only_the_columns_after_the_kept_ones(self):
        # the kept columns are left in the buffer; after a reallocation all
        # columns are copied
        rng = np.random.default_rng(10)
        X = rng.standard_normal((9, 40))
        design = DesignOperator(Instance(X=X, y=np.zeros(9), delta=1.0).X)
        first = design.take(np.array([3, 1, 30]))
        design._rows[:2] = np.nan  # rows a kept copy must not touch again
        grown = design.take(np.array([3, 1, 30, 7, 2]), kept=3)
        assert np.shares_memory(first, grown)
        assert np.isnan(grown[:, :2]).all()
        np.testing.assert_array_equal(grown[:, 2:], X[:, [30, 7, 2]])
        wide = design.take(np.arange(20), kept=5)  # past the buffer: a new one, copied whole
        assert not np.shares_memory(grown, wide)
        np.testing.assert_array_equal(wide, X[:, :20])

    @staticmethod
    def _spy(monkeypatch):
        """The calls of DesignOperator.take, as (columns, kept), and of
        core._kernel, as (rows of G, rows of its known block or None, the
        BLAS thread count it ran on or None when numpy bundles no OpenBLAS)."""
        taken, formed = [], []
        take, kernel = DesignOperator.take, core_module._kernel

        def taking(self, columns, kept=0):
            taken.append((columns.size, kept))
            return take(self, columns, kept)

        def forming(A, known=None):
            threads = core_module.set_blas_threads(1)  # the count it ran on
            formed.append((A.shape[0], None if known is None else known.shape[0], threads))
            return kernel(A, known)

        monkeypatch.setattr(DesignOperator, "take", taking)
        monkeypatch.setattr(core_module, "_kernel", forming)
        return taken, formed

    @staticmethod
    def _two_threads():
        """The BLAS thread count to set for a call made on 2 threads, and what
        the spy reads as the count of a call pinned to one."""
        previous = core_module.set_blas_threads(2)
        return previous, None if previous is None else 1

    def test_a_rerun_of_restricted_keeps_its_operator_and_copies_nothing(self, monkeypatch):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((30, 80))
        design = DesignOperator(Instance(X=X, y=np.zeros(30), delta=1.0).X)
        taken, formed = self._spy(monkeypatch)
        columns = np.array([2, 9, 40, 77])
        sub = design.restricted(columns)
        np.testing.assert_array_equal(sub.X, X[:, columns])
        assert sub.X.flags.f_contiguous and taken == [(4, 0)]
        assert [shape[:2] for shape in formed] == [(4, None)]  # its G, formed afresh
        assert design.restricted(columns.copy()) is sub
        assert taken == [(4, 0)] and len(formed) == 1
        # on all columns it is the operator itself, with no copy
        assert design.restricted(np.arange(80)) is design and taken == [(4, 0)]

    def test_restricted_appends_to_the_last_block_and_gram_matrix(self, monkeypatch):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((120, 400))
        design = DesignOperator(Instance(X=X, y=np.zeros(120), delta=1.0).X)
        taken, formed = self._spy(monkeypatch)
        previous, pinned = self._two_threads()
        try:
            old = rng.choice(400, 40, replace=False)  # in no particular order
            last = design.restricted(old)
            new = np.setdiff1d(rng.choice(400, 40, replace=False), old)
            columns = np.concatenate((old, new))
            sub = design.restricted(columns)
        finally:
            if previous is not None:
                core_module.set_blas_threads(previous)
        # only the new columns are copied, after the old ones in the same buffer
        assert taken == [(40, 0), (columns.size, 40)]
        assert np.shares_memory(last.X, sub.X)
        np.testing.assert_array_equal(sub.X, X[:, columns])
        # the one routine grows the last G by the new columns, on one BLAS thread
        assert formed == [(40, None, pinned), (columns.size, 40, pinned)]
        G = vars(sub)["kernel"]
        expected = core_module._kernel(np.ascontiguousarray(X[:, columns].T))
        assert np.abs(G - expected).max() <= 1e-12 * np.abs(expected).max()
        assert np.array_equal(G, G.T) and G.flags.c_contiguous
        assert np.array_equal(G[:40, :40], vars(last)["kernel"])
        # columns that do not start with the last call's make a fresh copy and G
        other = design.restricted(columns[1:])
        assert taken[-1] == (columns.size - 1, 0) and formed[-1][:2] == (columns.size - 1, None)
        np.testing.assert_array_equal(other.X, X[:, columns[1:]])

    def test_a_block_of_as_many_columns_as_rows_forms_no_gram_matrix(self, monkeypatch):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((30, 100))
        design = DesignOperator(Instance(X=X, y=np.zeros(30), delta=1.0).X)
        taken, formed = self._spy(monkeypatch)
        design.restricted(np.arange(20))  # forms its G
        wide = design.restricted(np.arange(30))
        v = rng.standard_normal(30)
        np.testing.assert_allclose(wide.gram_matvec(v), X[:, :30].T @ (X[:, :30] @ v),
                                   rtol=1e-12, atol=1e-12)
        assert not wide.forms_gram and "kernel" not in vars(wide)
        assert taken == [(20, 0), (30, 20)] and [shape[:2] for shape in formed] == [(20, None)]

    def test_the_first_restricted_on_the_columns_of_the_last_fit_is_its_operator(
        self, monkeypatch
    ):
        # least_squares fits on the operator that restricted makes for its
        # columns, with that operator's G; the next restricted call on those
        # columns returns that operator, and copies and forms nothing
        rng = np.random.default_rng(14)
        X = rng.standard_normal((120, 400))
        y = rng.standard_normal(120)
        design = DesignOperator(Instance(X=X, y=y, delta=1.0).X)
        columns = np.sort(rng.choice(400, 40, replace=False))
        taken, formed = self._spy(monkeypatch)
        previous, pinned = self._two_threads()
        try:
            core_module.least_squares(design, y, columns)
        finally:
            if previous is not None:
                core_module.set_blas_threads(previous)
        assert taken == [(40, 0)] and formed == [(40, None, pinned)]
        sub = design.restricted(columns.copy())
        assert taken == [(40, 0)] and len(formed) == 1
        G = vars(sub)["kernel"]
        assert np.array_equal(G, G.T) and G.flags.c_contiguous
        expected = X[:, columns].T @ X[:, columns]
        assert np.abs(G - expected).max() <= 1e-12 * np.abs(expected).max()
        with core_module.one_blas_thread():
            fresh = core_module._kernel(np.ascontiguousarray(X[:, columns].T))
        assert np.abs(G - fresh).max() <= 1e-15 * np.abs(fresh).max()

    @pytest.mark.parametrize("case", ["other columns", "a round came first", "appended columns",
                                      "square"])
    def test_a_call_after_a_fit_follows_the_rule_of_the_last_call(self, monkeypatch, case):
        # a fit is a call of restricted like any other: the next call reruns
        # its operator on its columns, appends to it when it extends them,
        # and copies and forms afresh otherwise
        rng = np.random.default_rng(15)
        X = rng.standard_normal((60, 300))
        y = rng.standard_normal(60)
        design = DesignOperator(Instance(X=X, y=y, delta=1.0).X)
        columns = np.sort(rng.choice(300, 20, replace=False))
        if case == "a round came first":
            design.restricted(np.arange(10))
        if case == "square":  # as many columns as rows: the fit forms the G it needs itself
            columns = np.arange(60)
        core_module.least_squares(design, y, columns)
        fit = design._last[1]
        taken, formed = self._spy(monkeypatch)
        extra = np.setdiff1d(np.arange(300), columns)[-1:]
        asked = {"other columns": columns[1:], "appended columns": np.concatenate((columns, extra))
                 }.get(case, columns)
        sub = design.restricted(asked)
        np.testing.assert_array_equal(sub.X, X[:, asked])
        if case == "other columns":
            assert taken == [(19, 0)] and [shape[:2] for shape in formed] == [(19, None)]
            assert np.array_equal(sub.kernel, core_module._kernel(sub.X.T))
        elif case == "appended columns":
            assert taken == [(21, 20)] and [shape[:2] for shape in formed] == [(21, 20)]
            assert np.array_equal(sub.kernel[:20, :20], fit.kernel)
        else:
            assert sub is fit and taken == formed == []
            assert "kernel" in vars(sub) and sub.forms_gram == (case != "square")


class TestFusedPass:
    """rmatvec_pair: (X^T a, X^T b) from one two-column product per FUSED_ROWS rows."""

    N = 50

    @classmethod
    def _case(cls, p, seed=0):
        rng = np.random.default_rng(p + seed)
        X = rng.standard_normal((cls.N, p))
        inst = Instance(X=X, y=rng.standard_normal(cls.N), delta=1.0)
        return inst, rng.standard_normal(cls.N), rng.standard_normal(cls.N)

    @staticmethod
    def _check(X, a, b, pair):
        """Each entry within 1e-12 of its error scale sum_i |X_ij| |a_i|."""
        for out, w in zip(pair, (a, b)):
            assert out.shape == (X.shape[1],)
            scale = np.abs(X).T @ np.abs(w)
            assert np.all(np.abs(out - X.T @ w) <= 1e-12 * scale)

    @pytest.mark.parametrize("p", [129, 300, 2560])
    def test_matches_two_transposed_products(self, p):
        inst, a, b = self._case(p)
        X = np.array(inst.X)
        self._check(X, a, b, DesignOperator(inst.X).rmatvec_pair(a, b))

    @pytest.mark.parametrize("p", [129, 300, 2560])
    def test_matches_on_a_restricted_operator(self, p):
        inst, a, b = self._case(p, seed=1)
        columns = np.sort(np.random.default_rng(p).choice(p, p // 4, replace=False))
        restricted = DesignOperator(inst.X).restricted(columns)
        self._check(np.array(inst.X)[:, columns], a, b, restricted.rmatvec_pair(a, b))

    @pytest.mark.parametrize("p", [1, FUSED_ROWS, FUSED_ROWS + 1, 300, 2560])
    def test_one_product_per_chunk(self, products, p):
        inst, a, b = self._case(p)
        products.watch(inst)
        DesignOperator(inst.X).rmatvec_pair(a, b)
        assert products.x_products == -(-p // FUSED_ROWS)
        assert products.calls == {"rmatvec_pair": 1} and products.outside == 0

    def test_outputs_are_one_dimensional_and_do_not_alias(self):
        inst, a, b = self._case(300)
        out_a, out_b = DesignOperator(inst.X).rmatvec_pair(a, b)
        assert out_a.ndim == out_b.ndim == 1
        assert not np.shares_memory(out_a, out_b)
        expected = np.array(out_b)
        out_a[:] = 0.0  # writing one leaves the other as it was
        assert np.array_equal(out_b, expected)
        assert not np.shares_memory(out_a, a) and not np.shares_memory(out_b, b)


class TestSymmetricKernelProduct:
    """G v from the formed G, or as X^T (X v), with numpy's BLAS alone."""

    @staticmethod
    def _design(n, p):
        rng = np.random.default_rng(n + p)
        X = rng.standard_normal((n, p))
        return X, DesignOperator(Instance(X=X, y=np.zeros(n), delta=1.0).X), rng

    @pytest.mark.parametrize("n, p", [(64, 64), (65, 90), (150, 200), (90, 65), (200, 150)])
    def test_matches_xt_x(self, n, p):
        X, design, rng = self._design(n, p)
        wide = rng.standard_normal((3 * p, 2))
        for v in (rng.standard_normal(p), wide[::3, 1], wide[::-3, 0]):  # strided views
            expected = X.T @ (X @ v)
            got = design.gram_matvec(v)
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("n, p", [(64, 64), (65, 90), (150, 200)])
    def test_is_two_products_when_g_would_not_be_smaller_than_x(self, n, p):
        # p >= n: G would take at least X's entries, so it is not formed
        _, design, rng = self._design(n, p)
        v = rng.standard_normal(p)
        assert np.array_equal(design.gram_matvec(v), design.rmatvec(design.matvec(v)))
        assert "kernel" not in vars(design)

    @pytest.mark.parametrize("n, p", [(90, 65), (200, 150)])
    def test_more_rows_than_columns_is_g_times_v(self, n, p):
        # p < n: G = X^T X is formed, and no product with X is made
        X, design, rng = self._design(n, p)
        v = rng.standard_normal(p)
        expected = X.T @ (X @ v)
        assert np.abs(design.gram_matvec(v) - expected).max() <= 1e-12 * np.abs(expected).max()
        assert np.array_equal(design.gram_matvec(v), design.kernel @ v)
        assert design.kernel.shape == (p, p)

    def test_a_solve_loads_no_second_blas(self):
        # scipy.linalg would load scipy's own OpenBLAS, a second BLAS in the process
        script = (
            "import sys\n"
            "import numpy as np\n"
            "import dantzig_adm\n"
            "from dantzig_adm import core\n"
            "spec = dantzig_adm.GenSpec(n=90, p=30, s=4, sigma_noise=0.05)\n"
            "inst, _ = dantzig_adm.make_instance(spec)\n"
            "mu = dantzig_adm.mu_rule('unit_columns', inst.p, inst.delta)\n"
            "config = dantzig_adm.AdmConfig(mu=mu, tol=1e-3)\n"
            "formed = []\n"
            "kernel = core._kernel\n"
            "core._kernel = lambda X: formed.append(X.shape) or kernel(X)\n"
            "# a dense beta0 puts every column in W, so the round runs on X and forms G\n"
            "dantzig_adm.solve(inst, config, beta0=np.ones(inst.p))\n"
            "print(len(formed), 'scipy.linalg' in sys.modules)\n"
        )
        src = Path(core_module.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["1", "False"]  # G was formed, without scipy.linalg


class TestKernelFromAKnownBlock:
    """_kernel(A, known): the G of rows appended to A, from the G of the first ones."""

    @staticmethod
    def _check(X, old, new):
        """G of X[:, old + new] from a known G of X[:, old], against a fresh _kernel."""
        A = np.ascontiguousarray(X[:, np.concatenate((old, new)).astype(np.intp)].T)
        k = len(old)
        known = None
        if k:
            # a copied block stays as given: one ulp of the largest entry is
            # added on the diagonal, which a recomputed block would not hold
            known = core_module._kernel(np.ascontiguousarray(A[:k]))
            known[np.diag_indices(k)] += np.spacing(np.abs(known).max())
        G = core_module._kernel(A, known)
        expected = core_module._kernel(A)
        assert np.abs(G - expected).max() <= 1e-12 * np.abs(expected).max()
        assert np.array_equal(G, G.T) and G.flags.c_contiguous
        # the products with the old columns are not made again
        assert known is None or np.array_equal(G[:k, :k], known)
        return G, expected

    @pytest.mark.parametrize("added", [1, 20, 64, 65, 150])
    def test_new_columns_after_the_old_ones(self, added):
        # W keeps the order its columns joined, so the new columns come last;
        # more than 64 of them take several blocks
        rng = np.random.default_rng(added)
        X = rng.standard_normal((90, 400))
        columns = rng.choice(400, 60 + added, replace=False)
        self._check(X, columns[:60], columns[60:])

    def test_no_new_column_copies_the_kernel(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((50, 80))
        self._check(X, rng.choice(80, 30, replace=False), [])

    def test_from_no_old_column_forms_it_all(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((50, 200))
        G, expected = self._check(X, [], np.arange(0, 200, 2))
        assert np.array_equal(G, expected)


class TestStorageOrder:
    def test_column_major_from_either_layout(self):
        rng = np.random.default_rng(42)
        X = rng.standard_normal((300, 40))  # long columns: the sum order shows in d
        y = rng.standard_normal(300)
        from_c = Instance(X=X, y=y, delta=1.0)
        from_f = Instance(X=np.asfortranarray(X), y=y, delta=1.0)
        for inst in (from_c, from_f):
            assert inst.X.flags.f_contiguous
            assert inst.X.T.flags.c_contiguous
        assert np.array_equal(from_c.X, from_f.X)
        assert np.array_equal(from_c.X, X)
        assert np.array_equal(from_c.d, from_f.d)
        assert np.array_equal(from_c.d, np.linalg.norm(X, axis=0))

    def test_strided_input(self):
        rng = np.random.default_rng(46)
        wide = rng.standard_normal((150, 90))
        view = wide[1::2, ::3]  # neither C- nor F-contiguous
        inst = Instance(X=view, y=np.zeros(75), delta=1.0)
        assert inst.X.flags.f_contiguous
        assert np.array_equal(inst.X, view)
        assert np.array_equal(inst.d, np.linalg.norm(np.ascontiguousarray(view), axis=0))

    def test_fortran_input_is_not_copied(self):
        rng = np.random.default_rng(43)
        X = np.asfortranarray(rng.standard_normal((6, 9)))
        assert Instance(X=X, y=np.zeros(6), delta=1.0).X is X

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("design", ["unit_columns", "orthogonal_rows"])
    def test_xty_from_the_pass_that_gives_d(self, order, design):
        # X^T y is summed tile by tile in row-major order: X.T @ y up to
        # rounding, and the same bytes from either layout
        spec = GenSpec(n=203, p=900, s=12, sigma_noise=0.05, design_kind=design, seed=6)
        made, _ = make_instance(spec)
        X = np.array(made.X, order=order)
        inst = Instance(X=X, y=made.y, delta=made.delta)
        expected = X.T @ made.y
        assert np.abs(inst.xty - expected).max() <= 1e-14 * np.abs(expected).max()
        assert inst.xty.tobytes() == made.xty.tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entries_rejected_in_either_layout(self, order, bad):
        X = np.array(np.random.default_rng(47).standard_normal((70, 5)), order=order)
        X[66, 3] = bad  # in the second tile
        with pytest.raises(ValueError, match="non-finite"):
            Instance(X=X, y=np.zeros(70), delta=1.0)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_squares_are_finite_entries(self):
        # the sum of squares of column 0 overflows; its entries are finite
        X = np.asfortranarray([[1e200, 1.0], [1.0, 1.0]])
        inst = Instance(X=X, y=np.zeros(2), delta=1.0)
        assert inst.d[0] == np.inf and inst.d[1] == np.sqrt(2.0)


class TestRowTiles:
    """row_tiles and column_sums_of_squares read a column-major X as a row-major one."""

    @staticmethod
    def _layouts(X):
        return [X, np.asfortranarray(X), np.asfortranarray(np.repeat(X, 2, axis=1))[:, ::2]]

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
    def test_tiles_are_the_rows(self, n):
        X = np.random.default_rng(n).standard_normal((n, 300))
        for layout in self._layouts(X):
            tiles = [(start, tile.copy()) for start, tile in core_module.row_tiles(layout)]
            assert [start for start, _ in tiles] == list(range(0, n, core_module.ROW_TILE))
            assert all(tile.flags.c_contiguous for _, tile in core_module.row_tiles(layout))
            assert np.array_equal(np.vstack([tile for _, tile in tiles]), X)

    def test_product_from_support_columns_is_the_row_major_product(self):
        rng = np.random.default_rng(48)
        X = rng.standard_normal((150, 333))
        v = np.zeros(333)
        support = rng.choice(333, size=9, replace=False)
        v[support] = rng.standard_normal(9)
        F = np.asfortranarray(X)
        y = np.empty(150)
        for start, tile in core_module.row_tiles(F, np.flatnonzero(v)):
            off = np.ones(333, dtype=bool)
            off[support] = False
            assert not tile[:, off].any()  # only the support was copied
            np.matmul(tile, v, out=y[start : start + tile.shape[0]])
        assert y.tobytes() == (X @ v).tobytes()

    @pytest.mark.parametrize("n", [1, 65, 300])
    def test_sums_of_squares_are_those_of_the_row_major_norm(self, n):
        # long columns: the order of the sum shows in the last bits
        X = np.random.default_rng(n).standard_normal((n, 40))
        for layout in self._layouts(X):
            tiles = (tile for _, tile in core_module.row_tiles(layout))
            sums = core_module.column_sums_of_squares(tiles, 40)
            assert np.sqrt(sums).tobytes() == np.linalg.norm(X, axis=0).tobytes()


class TestLeastSquares:
    """core.least_squares, the refit of two_stage and of the default start."""

    def test_minimum_norm_fit_on_the_columns_and_zero_off_them(self):
        rng = np.random.default_rng(95)
        X, y = rng.standard_normal((6, 10)), rng.standard_normal(6)
        X[:, 7] = X[:, 2]  # rank-deficient on the columns
        columns = np.array([1, 2, 7])
        b = core_module.least_squares(DesignOperator(X), y, columns)
        assert not np.delete(b, columns).any()
        assert np.abs(b[columns] - np.linalg.pinv(X[:, columns]) @ y).max() <= 1e-12
        assert not core_module.least_squares(DesignOperator(X), y, np.array([], dtype=int)).any()

    def test_a_kept_block_gives_the_same_bytes_in_one_buffer(self):
        # the default start copies every fit's columns into the solve
        # operator's one buffer; its block is column-major like
        # X[:, columns], so the fit is the same
        inst, _ = make_instance(GenSpec(n=180, p=600, s=10, sigma_noise=0.05, seed=4))
        rng = np.random.default_rng(96)
        block = DesignOperator(inst.X)
        buffers = set()
        for size in (20, 15, 20, 30):
            columns = np.sort(rng.choice(inst.p, size, replace=False))
            kept = core_module.least_squares(block, inst.y, columns)
            copy = np.asarray(inst.X[:, columns])
            with core_module.one_blas_thread():  # the fit on a plain copy, as least_squares runs it
                fit = core_module._normal_equations(copy, copy.T @ copy, inst.y)
            fresh = np.zeros(inst.p)
            fresh[columns] = fit
            assert kept.tobytes() == fresh.tobytes()
            fresh_operator = DesignOperator(inst.X)
            assert kept.tobytes() == core_module.least_squares(fresh_operator, inst.y,
                                                               columns).tobytes()
            buffers.add(id(block._rows))
        assert len(buffers) == 1 and block._rows.shape == (40, inst.n)  # twice the first 20

    @staticmethod
    @contextmanager
    def _paths():
        """The calls of np.linalg.cholesky and lstsq made inside the block, by name."""
        calls = []

        def spy(name, original):
            def call(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return call

        with pytest.MonkeyPatch.context() as patch:
            for name in ("cholesky", "lstsq"):
                patch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
            yield calls

    def test_a_well_conditioned_tall_block_takes_the_cholesky_path(self):
        rng = np.random.default_rng(97)
        X, y = rng.standard_normal((200, 60)), rng.standard_normal(200)
        columns = np.sort(rng.choice(60, 30, replace=False))
        with self._paths() as calls:
            b = core_module.least_squares(DesignOperator(X), y, columns)
        assert calls == ["cholesky"]
        expected, *_ = np.linalg.lstsq(X[:, columns], y, rcond=None)
        assert not np.delete(b, columns).any()
        assert np.abs(b[columns] - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_nearly_equal_columns_take_the_lapack_path(self, seed):
        # the Gram matrix has a Cholesky factor, whose condition bound is ~1e8
        rng = np.random.default_rng(seed)
        X, y = rng.standard_normal((40, 12)), rng.standard_normal(40)
        X[:, 7] = X[:, 2] + 1e-9 * rng.standard_normal(40)
        columns = np.array([1, 2, 5, 7])
        with self._paths() as calls:
            b = core_module.least_squares(DesignOperator(X), y, columns)
        assert calls == ["cholesky", "lstsq"]
        expected = np.linalg.pinv(X[:, columns]) @ y
        assert np.abs(b[columns] - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_a_kahan_block_takes_the_lapack_path_despite_its_diagonal(self):
        # B = Q R with R Kahan's matrix: R_jj = s^j, so the Cholesky factor's
        # diagonal ratio is s^39 = 0.16 while cond(B) is about 5e5
        k, c = 40, 0.3
        s = np.sqrt(1 - c * c)
        R = np.diag(s ** np.arange(k)) @ (np.eye(k) - c * np.triu(np.ones((k, k)), 1))
        rng = np.random.default_rng(98)
        Q, _ = np.linalg.qr(rng.standard_normal((100, k)))
        X, y = Q @ R, rng.standard_normal(100)
        diagonal = np.diagonal(np.linalg.cholesky(X.T @ X))
        assert diagonal.min() / diagonal.max() > 0.1
        assert np.linalg.cond(X) > 1e5
        with self._paths() as calls:
            b = core_module.least_squares(DesignOperator(X), y, np.arange(k))
        assert calls == ["cholesky", "lstsq"]
        with core_module.one_blas_thread():  # as least_squares runs it
            expected, *_ = np.linalg.lstsq(X, y, rcond=None)
        assert b.tobytes() == expected.tobytes()

    def test_more_columns_than_rows_give_the_minimum_norm_answer(self):
        rng = np.random.default_rng(99)
        X, y = rng.standard_normal((6, 12)), rng.standard_normal(6)
        columns = np.array([0, 2, 3, 5, 8, 9, 11])
        with self._paths() as calls:
            b = core_module.least_squares(DesignOperator(X), y, columns)
        assert calls == ["lstsq"]  # no Gram matrix is formed
        assert not np.delete(b, columns).any()
        assert np.abs(X @ b - y).max() <= 1e-12  # an exact fit
        assert np.abs(b[columns] - np.linalg.pinv(X[:, columns]) @ y).max() <= 1e-12

    def test_runs_on_one_blas_thread_and_restores_the_count(self):
        previous = core_module.set_blas_threads(2)
        if previous is None:
            pytest.skip("numpy bundles no OpenBLAS with a thread-count setter here")
        try:
            seen = []

            def recording(name, original):
                def call(*args, **kwargs):
                    seen.append((name, core_module.set_blas_threads(1)))  # the count it ran on
                    return original(*args, **kwargs)

                return call

            rng = np.random.default_rng(96)
            with pytest.MonkeyPatch.context() as patch:
                for name in ("cholesky", "lstsq"):
                    patch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
                # 3 columns of 8 rows take the Cholesky path, 5 columns of 4 rows lstsq
                for rows, columns in ((8, 3), (4, 5)):
                    core_module.least_squares(
                        DesignOperator(rng.standard_normal((rows, 5))), rng.standard_normal(rows),
                        np.arange(columns),
                    )
            assert seen == [("cholesky", 1), ("lstsq", 1)]
            assert core_module.set_blas_threads(2) == 2
        finally:
            core_module.set_blas_threads(previous)


class TestSoftThresh:
    def test_entrywise_example(self):
        assert np.array_equal(soft_thresh(np.array([3.0, -0.5, 1.0]), 1.0), [2.0, 0.0, 0.0])

    @pytest.mark.parametrize("gamma", [0.1, 1.0, 17.5])
    def test_zero_vector(self, gamma):
        assert np.array_equal(soft_thresh(np.zeros(4), gamma), np.zeros(4))

    def test_matches_prox_oracle(self):
        rng = np.random.default_rng(5)
        v = rng.uniform(-4, 4, size=30)
        for gamma in (0.3, 1.0, 2.5):
            expected = np.array([prox_l1_scalar(vi, gamma) for vi in v])
            assert np.allclose(soft_thresh(v, gamma), expected, atol=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(v=finite_vectors, gamma=st.floats(0.01, 5))
    def test_small_entries_map_to_exact_zero(self, v, gamma):
        out = soft_thresh(v, gamma)
        assert np.all(out[np.abs(v) <= gamma] == 0.0)

    @settings(max_examples=100, deadline=None)
    @given(v=finite_vectors, gamma=st.floats(0.01, 5))
    def test_prox_optimality_inequality(self, v, gamma):
        # prox objective at the output never exceeds it at nearby perturbations
        out = soft_thresh(v, gamma)

        def prox_objective(w):
            return 0.5 * np.sum((w - v) ** 2) + gamma * np.abs(w).sum()

        base = prox_objective(out)
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert base <= prox_objective(out + 0.1 * rng.standard_normal(v.shape)) + 1e-12


    @staticmethod
    def _same_bytes(v, gamma):
        out, expected = soft_thresh(v, gamma), soft_thresh_formula(v, gamma)
        assert out.tobytes() == expected.tobytes()
        assert np.array_equal(np.signbit(out), np.signbit(expected))

    @settings(max_examples=100, deadline=None)
    @given(v=finite_vectors, gamma=st.floats(0.0, 5))
    def test_bytes_equal_the_formula(self, v, gamma):
        # formed in place with the sign factor last: the same bytes as the formula
        self._same_bytes(v, gamma)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 1.5, 5e-324])
    def test_signed_zeros_ties_and_extremes_equal_the_formula(self, gamma):
        v = np.array([0.0, -0.0, 1.0, -1.0, 1.5, -1.5, 5e-324, -5e-324, 1e308, -1e308,
                      np.inf, -np.inf])
        self._same_bytes(v, gamma)


class TestBoxClamp:
    def test_interior_points_unchanged(self):
        w = np.array([0.5, -0.25, 0.0])
        bound = np.ones(3)
        assert np.array_equal(box_clamp(w, bound, -bound), w)

    def test_saturation(self):
        bound = np.array([1.0, 2.0])
        assert np.array_equal(box_clamp(np.array([10.0, -10.0]), bound, -bound), [1.0, -2.0])

    def test_matches_projection_oracle(self):
        rng = np.random.default_rng(6)
        w = rng.uniform(-5, 5, size=25)
        bound = rng.uniform(0.1, 3, size=25)
        expected = np.array([box_project_scalar(wi, bi) for wi, bi in zip(w, bound)])
        assert np.allclose(box_clamp(w, bound, -bound), expected, atol=1e-10)

    def test_bytes_equal_np_clip_at_nan_infinities_and_signed_zeros(self):
        specials = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 2.5, -2.5,
                             5e-324, -5e-324, np.finfo(float).max, -np.finfo(float).max])
        bounds = np.array([0.0, -0.0, 1.0, 2.5, 5e-324, np.inf, np.nan])
        w, bound = (a.ravel() for a in np.meshgrid(specials, bounds))
        clamped = box_clamp(w, bound, -bound)
        assert clamped.tobytes() == clip_formula(w, bound).tobytes()
        assert np.array_equal(np.signbit(clamped), np.signbit(clip_formula(w, bound)))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 300))
    def test_bytes_equal_np_clip(self, seed, size):
        rng = np.random.default_rng(seed)
        bound = rng.uniform(0.0, 3, size=size)
        w = rng.uniform(-6, 6, size=size)
        w[rng.random(size) < 0.1] = 0.0
        w[rng.random(size) < 0.1] *= -0.0
        assert box_clamp(w, bound, -bound).tobytes() == clip_formula(w, bound).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 12))
    def test_idempotent_and_nonexpansive(self, seed, size):
        rng = np.random.default_rng(seed)
        bound = rng.uniform(0.1, 3, size=size)
        a = rng.uniform(-6, 6, size=size)
        b = rng.uniform(-6, 6, size=size)
        ca, cb = box_clamp(a, bound, -bound), box_clamp(b, bound, -bound)
        assert np.array_equal(box_clamp(ca, bound, -bound), ca)
        assert np.linalg.norm(ca - cb) <= np.linalg.norm(a - b) + 1e-12
        assert np.all(np.abs(ca) <= bound)
