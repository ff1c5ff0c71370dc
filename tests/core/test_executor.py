"""Tests for the execution engines and the public multiply()."""

import numpy as np
import pytest

from repro.core.executor import (
    BlockedEngine,
    DirectEngine,
    multiply,
    resolve_levels,
)


class TestResolveLevels:
    def test_name(self):
        ml = resolve_levels("strassen", 2)
        assert ml.L == 2
        assert ml.dims_total == (4, 4, 4)

    def test_tuple(self):
        ml = resolve_levels((3, 2, 3), 1)
        assert ml.dims_total == (3, 2, 3)

    def test_hybrid_list(self):
        ml = resolve_levels(["strassen", "<3,2,3>"])
        assert ml.dims_total == (6, 4, 6)

    def test_passthrough(self):
        ml = resolve_levels("strassen", 1)
        assert resolve_levels(ml) is ml

    def test_bad_levels(self):
        with pytest.raises(ValueError):
            resolve_levels("strassen", 0)


class TestDirectEngine:
    @pytest.mark.parametrize(
        "spec,levels,shape",
        [
            ("strassen", 1, (32, 32, 32)),
            ("strassen", 2, (36, 40, 44)),
            ("strassen", 3, (64, 64, 64)),
            ("winograd", 1, (30, 30, 30)),
            ((3, 3, 3), 1, (27, 27, 27)),
            ((2, 5, 2), 1, (32, 40, 36)),
            ((3, 3, 6), 1, (33, 36, 66)),
            (["strassen", "<3,3,3>"], 1, (48, 48, 48)),
        ],
    )
    def test_matches_numpy(self, rng, spec, levels, shape):
        m, k, n = shape
        A = rng.standard_normal((m, k))
        B = rng.standard_normal((k, n))
        C = np.zeros((m, n))
        DirectEngine().multiply(A, B, C, resolve_levels(spec, levels))
        assert np.abs(C - A @ B).max() < 1e-9

    def test_peeling_shapes(self, rng):
        ml = resolve_levels("strassen", 2)
        for shape in [(17, 19, 23), (4, 100, 4), (101, 3, 57)]:
            m, k, n = shape
            A = rng.standard_normal((m, k))
            B = rng.standard_normal((k, n))
            C = np.zeros((m, n))
            DirectEngine().multiply(A, B, C, ml)
            assert np.abs(C - A @ B).max() < 1e-9

    def test_accumulates_into_c(self, rng):
        ml = resolve_levels("strassen", 1)
        A = rng.standard_normal((8, 8))
        B = rng.standard_normal((8, 8))
        C = np.ones((8, 8))
        DirectEngine().multiply(A, B, C, ml)
        assert np.allclose(C, 1.0 + A @ B)


class TestBlockedEngine:
    @pytest.mark.parametrize("variant", ["naive", "ab", "abc"])
    def test_variants_match_numpy(self, rng, variant):
        ml = resolve_levels("strassen", 2)
        A = rng.standard_normal((100, 104))
        B = rng.standard_normal((104, 96))
        C = np.zeros((100, 96))
        BlockedEngine(variant=variant).multiply(A, B, C, ml)
        assert np.abs(C - A @ B).max() < 1e-9

    def test_micro_mode_matches_slab(self, rng):
        ml = resolve_levels("strassen", 1)
        A = rng.standard_normal((40, 40))
        B = rng.standard_normal((40, 40))
        C1 = np.zeros((40, 40))
        C2 = np.zeros((40, 40))
        BlockedEngine(mode="micro").multiply(A, B, C1, ml)
        BlockedEngine(mode="slab").multiply(A, B, C2, ml)
        assert np.allclose(C1, C2)

    def test_threads_match_sequential(self, rng):
        ml = resolve_levels((3, 2, 3), 1)
        A = rng.standard_normal((300, 200))
        B = rng.standard_normal((200, 300))
        C1 = np.zeros((300, 300))
        C2 = np.zeros((300, 300))
        # threads drives the packed GEMM's 3rd (ic) loop: 100-row blocks
        # split into two row bands at the default m_C of 96, each owned
        # by one worker, so the result is the sequential one bit for bit.
        BlockedEngine(threads=1).multiply(A, B, C1, ml)
        BlockedEngine(threads=4).multiply(A, B, C2, ml)
        assert np.array_equal(C1, C2)
        assert np.abs(C1 - A @ B).max() < 1e-9

    def test_counters_populated(self, rng):
        eng = BlockedEngine(variant="abc")
        A = rng.standard_normal((64, 64))
        B = rng.standard_normal((64, 64))
        eng.multiply(A, B, np.zeros((64, 64)), resolve_levels("strassen", 1))
        c = eng.counters
        assert c.mul_flops > 0
        assert c.a_read > 0 and c.b_read > 0
        assert c.c_traffic > 0
        assert c.temp_c_traffic == 0  # ABC never materializes M_r

    def test_gemm_baseline(self, rng):
        eng = BlockedEngine()
        A = rng.standard_normal((70, 80))
        B = rng.standard_normal((80, 90))
        C = np.zeros((70, 90))
        eng.gemm(A, B, C)
        assert np.abs(C - A @ B).max() < 1e-10
        # Plain GEMM on one block: exactly 2mnk multiply flops.
        assert eng.counters.mul_flops == 2 * 70 * 80 * 90


class TestPublicMultiply:
    def test_default_strassen(self, rng):
        A = rng.standard_normal((64, 64))
        B = rng.standard_normal((64, 64))
        C = multiply(A, B)
        assert np.allclose(C, A @ B)

    def test_all_engines_variants(self, rng):
        A = rng.standard_normal((48, 48))
        B = rng.standard_normal((48, 48))
        for engine in ("direct", "blocked"):
            for variant in ("naive", "ab", "abc"):
                C = multiply(
                    A, B, algorithm=(3, 2, 3), engine=engine, variant=variant
                )
                assert np.allclose(C, A @ B)

    def test_rejects_bad_shapes(self, rng):
        with pytest.raises(ValueError):
            multiply(rng.standard_normal((4, 5)), rng.standard_normal((4, 5)))

    def test_rejects_unknown_engine(self, rng):
        A = rng.standard_normal((4, 4))
        with pytest.raises(ValueError):
            multiply(A, A, engine="gpu")

    def test_int_inputs_promoted(self):
        A = np.arange(16).reshape(4, 4)
        B = np.eye(4, dtype=int)
        C = multiply(A, B, algorithm="strassen")
        assert np.allclose(C, A)
