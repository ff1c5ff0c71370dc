"""Tests for Naive / AB / ABC variant semantics and their cost signatures.

Since the streaming-runtime refactor the variants are leaf-kernel modes of
the one task-graph runtime (:class:`repro.core.variants.BlisProductLeaf`),
not a standalone loop nest — these tests pin the §4.1 cost signatures
through the BlockedEngine client and the leaf's own validation.
"""

import numpy as np
import pytest

from repro.core.executor import BlockedEngine, resolve_levels
from repro.core.variants import VARIANTS, BlisProductLeaf


def _run(variant, rng, shape=(64, 64, 64), spec="strassen", levels=1):
    ml = resolve_levels(spec, levels)
    m, k, n = shape
    A = rng.standard_normal((m, k))
    B = rng.standard_normal((k, n))
    C = np.zeros((m, n))
    eng = BlockedEngine(variant=variant)
    eng.multiply(A, B, C, ml)
    assert np.abs(C - A @ B).max() < 1e-9
    return eng.counters


class TestCostSignatures:
    def test_abc_has_no_temporaries(self, rng):
        c = _run("abc", rng)
        assert c.temp_a_traffic == 0
        assert c.temp_b_traffic == 0
        assert c.temp_c_traffic == 0

    def test_ab_has_only_c_temporary(self, rng):
        c = _run("ab", rng)
        assert c.temp_a_traffic == 0
        assert c.temp_b_traffic == 0
        assert c.temp_c_traffic > 0

    def test_naive_has_all_temporaries(self, rng):
        c = _run("naive", rng)
        assert c.temp_a_traffic > 0
        assert c.temp_b_traffic > 0
        assert c.temp_c_traffic > 0

    def test_packing_read_ordering(self, rng):
        # ABC/AB read each A submatrix once per use (nnz(U) reads); naive
        # reads only R packed temporaries — fewer packing reads, paid back
        # as temporary traffic.
        abc = _run("abc", rng)
        naive = _run("naive", rng)
        assert abc.a_read > naive.a_read
        assert naive.temp_a_traffic > 0

    def test_c_kernel_traffic_ordering(self, rng):
        # ABC writes every destination from the kernel: nnz(W) > R streams.
        abc = _run("abc", rng)
        ab = _run("ab", rng)
        assert abc.c_traffic > ab.c_traffic

    def test_same_multiplication_flops(self, rng):
        flops = {v: _run(v, rng).mul_flops for v in VARIANTS}
        assert flops["abc"] == flops["ab"] == flops["naive"]
        # One-level Strassen: 7 products of (32)^3 blocks: 7 * 2 * 32^3.
        assert flops["abc"] == 7 * 2 * 32**3

    def test_threaded_counters_match_serial(self, rng, monkeypatch):
        """The 3rd-loop (``ic``) pool charges the same counters as the
        sequential run: its bands never touch them."""
        import repro.core.variants as variants

        pools = []
        real = variants.packed_gemm

        def spy(*args, pool=None, **kwargs):
            pools.append(pool)
            return real(*args, pool=pool, **kwargs)

        monkeypatch.setattr(variants, "packed_gemm", spy)
        ml = resolve_levels("strassen", 1)
        # 128-row blocks: two row bands at the default m_C of 96.
        A = rng.standard_normal((256, 256))
        B = rng.standard_normal((256, 256))
        serial = BlockedEngine(variant="abc", threads=1)
        C1 = serial.multiply(A, B, np.zeros((256, 256)), ml)
        assert pools and all(p is None for p in pools)
        pools.clear()
        threaded = BlockedEngine(variant="abc", threads=3)
        C3 = threaded.multiply(A, B, np.zeros((256, 256)), ml)
        assert pools and all(p is not None for p in pools)
        assert threaded.counters.as_dict() == serial.counters.as_dict()
        assert np.array_equal(C1, C3)


class TestLeafValidation:
    def test_unknown_variant_lists_valid_names(self):
        with pytest.raises(ValueError, match="naive.*ab.*abc"):
            BlisProductLeaf(variant="xyz")

    def test_unknown_variant_rejected_by_engine(self):
        with pytest.raises(ValueError, match="expected one of"):
            BlockedEngine(variant="xyz")

    def test_leaf_capabilities(self):
        leaf = BlisProductLeaf()
        assert not leaf.supports_batch
        assert leaf.pool is None  # the engine passes its ic-loop pool
        assert leaf.needs_buffers == ()  # abc: fully fused, no buffers


class TestNoStandaloneLoopNest:
    def test_run_fmm_blocked_is_gone(self):
        """The blocked loop nest is deleted: products iterate only in the
        runtime's fused phase."""
        import repro.core.variants as variants

        assert not hasattr(variants, "run_fmm_blocked")
