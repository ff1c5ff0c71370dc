"""Property-based tests (hypothesis) for the core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.classical import classical
from repro.algorithms.strassen import strassen
from repro.core.morton import recursive_to_rowmajor, rowmajor_to_recursive
from repro.core.peeling import peel
from repro.core.transforms import (
    direct_sum_k,
    direct_sum_m,
    direct_sum_n,
    kron_compose,
    rotate,
    transpose_dual,
)

dims = st.integers(min_value=1, max_value=3)
big = st.integers(min_value=1, max_value=40)


class TestMortonProperties:
    @given(st.lists(st.tuples(dims, dims), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_permutation_is_bijection(self, grids):
        perm = recursive_to_rowmajor(grids)
        assert sorted(perm.tolist()) == list(range(len(perm)))

    @given(st.lists(st.tuples(dims, dims), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_inverse_composes_to_identity(self, grids):
        p = recursive_to_rowmajor(grids)
        q = rowmajor_to_recursive(grids)
        assert np.array_equal(p[q], np.arange(len(p)))


class TestPeelProperties:
    @given(big, big, big, dims, dims, dims)
    @settings(max_examples=120, deadline=None)
    def test_flop_cover(self, m, k, n, Mt, Kt, Nt):
        plan = peel(m, k, n, Mt, Kt, Nt)
        mc, kc, nc = plan.core
        total = mc * kc * nc + sum(
            f.shape[0] * f.shape[1] * f.shape[2] for f in plan.fringes
        )
        assert total == m * k * n

    @given(big, big, big, dims, dims, dims)
    @settings(max_examples=60, deadline=None)
    def test_core_divisibility(self, m, k, n, Mt, Kt, Nt):
        plan = peel(m, k, n, Mt, Kt, Nt)
        mc, kc, nc = plan.core
        assert mc % Mt == 0 and kc % Kt == 0 and nc % Nt == 0
        assert mc <= m and kc <= k and nc <= n


class TestTransformProperties:
    @given(dims, dims, dims)
    @settings(max_examples=30, deadline=None)
    def test_rotation_preserves_validity(self, m, k, n):
        a = classical(m, k, n)
        r = rotate(a)  # rotate() validates internally; reaching here = pass
        assert r.rank == a.rank
        assert r.dims == (k, n, m)

    @given(dims, dims, dims)
    @settings(max_examples=30, deadline=None)
    def test_dual_preserves_validity(self, m, k, n):
        a = classical(m, k, n)
        d = transpose_dual(a)
        assert d.dims == (n, k, m)

    @given(dims, dims, dims, dims)
    @settings(max_examples=20, deadline=None)
    def test_direct_sums_add_ranks(self, m, k, n, extra):
        a = classical(m, k, n)
        bn = classical(m, k, extra)
        s = direct_sum_n(a, bn)
        assert s.rank == a.rank + bn.rank
        bm = classical(extra, k, n)
        assert direct_sum_m(a, bm).rank == a.rank + bm.rank
        bk = classical(m, extra, n)
        assert direct_sum_k(a, bk).rank == a.rank + bk.rank

    @given(dims, dims, dims)
    @settings(max_examples=15, deadline=None)
    def test_kron_with_strassen(self, m, k, n):
        a = kron_compose(strassen(), classical(m, k, n))
        assert a.dims == (2 * m, 2 * k, 2 * n)
        assert a.rank == 7 * m * k * n


class TestMultiplyProperties:
    @given(
        st.integers(min_value=1, max_value=33),
        st.integers(min_value=1, max_value=33),
        st.integers(min_value=1, max_value=33),
        st.sampled_from(["strassen", (3, 2, 3), (2, 3, 2)]),
        st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_shape_multiplies(self, m, k, n, spec, levels):
        from repro.core.executor import multiply

        rng = np.random.default_rng(m * 10000 + k * 100 + n)
        A = rng.standard_normal((m, k))
        B = rng.standard_normal((k, n))
        C = multiply(A, B, algorithm=spec, levels=levels)
        assert np.abs(C - A @ B).max() < 1e-8

    @given(
        st.integers(min_value=1, max_value=33),
        st.integers(min_value=1, max_value=33),
        st.integers(min_value=1, max_value=33),
        st.sampled_from([np.float64, np.float32]),
        st.sampled_from(["naive", "ab", "abc"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_thread_invariance(self, m, k, n, dtype, variant):
        """multiply(..., threads=1) — what the perf ledger passes — is the
        default execution bit for bit and agrees with the classical
        oracle; any other thread count is refused (BLAS threads the leaf
        products instead)."""
        from repro.core.executor import multiply

        rng = np.random.default_rng(m * 10000 + k * 100 + n)
        A = rng.standard_normal((m, k)).astype(dtype)
        B = rng.standard_normal((k, n)).astype(dtype)
        ref = A.astype(np.float64) @ B.astype(np.float64)
        scale = max(1.0, float(np.abs(ref).max()))
        tol = 1e-9 if dtype == np.float64 else 200 * np.finfo(np.float32).eps
        C = multiply(A, B, algorithm="strassen", variant=variant, threads=1)
        assert C.dtype == dtype
        assert np.abs(C - ref).max() / scale < tol
        default = multiply(A, B, algorithm="strassen", variant=variant)
        assert np.array_equal(C, default)
        for t in (2, 4):
            with pytest.raises(ValueError, match="threads"):
                multiply(A, B, algorithm="strassen", variant=variant,
                         threads=t)

    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=25, deadline=None)
    def test_blocked_engine_any_shape(self, m, k, n):
        from repro.blis.params import BlockingParams
        from repro.core.executor import multiply

        rng = np.random.default_rng(n * 10000 + m * 100 + k)
        A = rng.standard_normal((m, k))
        B = rng.standard_normal((k, n))
        C = multiply(
            A, B, algorithm="strassen", engine="blocked",
            params=BlockingParams(mc=8, kc=8, nc=8, mr=4, nr=4),
        )
        assert np.abs(C - A @ B).max() < 1e-8
