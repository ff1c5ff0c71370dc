"""Tests for the plan compiler, its cache, and the unified execution paths."""

import numpy as np
import pytest

from repro.core import compile as plancache
from repro.core.codegen import compile_plan, generate_source
from repro.core.executor import (
    BlockedEngine,
    DirectEngine,
    multiply,
    multiply_batched,
    resolve_levels,
)
from repro.core.plan import build_plan


@pytest.fixture(autouse=True)
def fresh_cache():
    plancache.plan_cache_clear()
    yield
    plancache.plan_cache_clear()


class TestCacheBehavior:
    def test_hit_returns_same_object(self):
        p1 = plancache.compile((96, 96, 96), "strassen", levels=2)
        p2 = plancache.compile((96, 96, 96), "strassen", levels=2)
        assert p1 is p2
        info = plancache.plan_cache_info()
        assert info.hits == 1 and info.misses == 1 and info.currsize == 1

    def test_equivalent_specs_share_one_entry(self):
        p1 = plancache.compile((32, 32, 32), "<2,2,2>")
        p2 = plancache.compile((32, 32, 32), (2, 2, 2))
        assert p1 is p2

    def test_distinct_configs_miss(self):
        base = plancache.compile((64, 64, 64), "strassen")
        assert plancache.compile((64, 64, 64), "strassen", variant="ab") is not base
        assert (
            plancache.compile((64, 64, 64), "strassen", dtype=np.float32) is not base
        )
        assert plancache.compile((64, 64, 32), "strassen") is not base
        assert plancache.plan_cache_info().misses == 4

    def test_lru_eviction(self):
        old = plancache.plan_cache_info().maxsize
        plancache.set_plan_cache_maxsize(2)
        try:
            plancache.compile((8, 8, 8), "strassen")
            plancache.compile((16, 16, 16), "strassen")
            plancache.compile((32, 32, 32), "strassen")  # evicts (8, 8, 8)
            assert plancache.plan_cache_info().currsize == 2
            plancache.compile((8, 8, 8), "strassen")
            assert plancache.plan_cache_info().misses == 4
        finally:
            plancache.set_plan_cache_maxsize(old)

    def test_rejects_unsupported_dtype(self):
        with pytest.raises(ValueError):
            plancache.compile((8, 8, 8), "strassen", dtype=np.int32)

    def test_engine_multiply_populates_cache(self, rng):
        ml = resolve_levels("strassen", 1)
        A = rng.standard_normal((16, 16))
        C = np.zeros((16, 16))
        DirectEngine().multiply(A, A, C, ml)
        DirectEngine().multiply(A, A, np.zeros((16, 16)), ml)
        info = plancache.plan_cache_info()
        assert info.misses == 1 and info.hits == 1


class TestPlanEquivalence:
    def test_compiled_plan_matches_build_plan_counts(self):
        for spec, levels, shape in [
            ("strassen", 2, (64, 64, 64)),
            ((3, 2, 3), 1, (33, 22, 33)),
            (["strassen", "<3,3,3>"], 1, (48, 48, 48)),
        ]:
            ml = resolve_levels(spec, levels)
            old = build_plan(*shape, ml, "abc")
            new = plancache.compile(shape, spec, levels=levels)
            assert new.plan.operation_counts() == old.operation_counts()
            assert [s.a_terms for s in new.steps] == [s.a_terms for s in old.steps]

    def test_step_gather_arrays_match_terms(self):
        cplan = plancache.compile((64, 64, 64), "strassen")
        for s in cplan.steps:
            assert list(zip(s.a_idx, s.a_coef)) == list(s.a_terms)
            assert list(zip(s.b_idx, s.b_coef)) == list(s.b_terms)
            assert list(zip(s.c_idx, s.c_coef)) == list(s.c_terms)

    def test_all_consumers_agree(self, rng):
        """Direct, blocked, and generated code interpret one CompiledPlan."""
        cplan = plancache.compile((68, 72, 76), "strassen", levels=2)
        A = rng.standard_normal((68, 72))
        B = rng.standard_normal((72, 76))
        ref = A @ B
        C_direct = DirectEngine().execute(cplan, A, B, np.zeros((68, 76)))
        C_blocked = BlockedEngine().execute(cplan, A, B, np.zeros((68, 76)))
        fn, _ = compile_plan(cplan)
        C_gen = fn(A, B, np.zeros((68, 76)))
        assert np.abs(C_direct - ref).max() < 1e-9
        assert np.abs(C_blocked - ref).max() < 1e-9
        assert np.abs(C_gen - ref).max() < 1e-9

    def test_codegen_accepts_compiled_plan(self):
        cplan = plancache.compile((8, 8, 8), "strassen")
        src_compiled = generate_source(cplan)
        src_plan = generate_source(cplan.plan)
        assert src_compiled == src_plan

    def test_vectorized_and_step_paths_agree(self, rng):
        cplan = plancache.compile((52, 52, 52), "strassen", levels=2)
        A = rng.standard_normal((52, 52))
        B = rng.standard_normal((52, 52))
        C_vec = DirectEngine().execute(cplan, A, B, np.zeros((52, 52)))
        C_steps = DirectEngine(vector_cap=0).execute(cplan, A, B, np.zeros((52, 52)))
        assert np.abs(C_vec - C_steps).max() < 1e-10

    def test_shape_mismatch_raises(self, rng):
        cplan = plancache.compile((16, 16, 16), "strassen")
        A = rng.standard_normal((8, 8))
        with pytest.raises(ValueError):
            DirectEngine().execute(cplan, A, A, np.zeros((8, 8)))


class TestBatchedMultiply:
    def test_matches_looped_oracle(self, rng):
        A = rng.standard_normal((5, 36, 40))
        B = rng.standard_normal((5, 40, 44))
        got = multiply_batched(A, B, algorithm="strassen", levels=2)
        want = np.stack(
            [multiply(A[i], B[i], algorithm="strassen", levels=2) for i in range(5)]
        )
        assert got.shape == (5, 36, 44)
        assert np.abs(got - want).max() < 1e-10

    def test_peeled_sizes(self, rng):
        A = rng.standard_normal((4, 17, 19))
        B = rng.standard_normal((4, 19, 23))
        got = multiply_batched(A, B, algorithm="strassen", levels=2)
        assert np.abs(got - A @ B).max() < 1e-9

    def test_shared_operand_broadcast(self, rng):
        A = rng.standard_normal((6, 24, 24))
        B = rng.standard_normal((24, 24))
        got = multiply_batched(A, B)
        assert np.abs(got - A @ B).max() < 1e-9

    def test_blocked_engine_loops_plan(self, rng):
        A = rng.standard_normal((3, 32, 32))
        B = rng.standard_normal((3, 32, 32))
        got = multiply_batched(A, B, engine="blocked")
        assert np.abs(got - A @ B).max() < 1e-9
        assert plancache.plan_cache_info().misses == 1

    def test_chunking_matches_unchunked(self, rng):
        cplan = plancache.compile((16, 16, 16), "strassen")
        A = rng.standard_normal((40, 16, 16))
        B = rng.standard_normal((40, 16, 16))
        C1 = DirectEngine(chunk_target=1).execute(cplan, A, B, np.zeros((40, 16, 16)))
        C2 = DirectEngine().execute(cplan, A, B, np.zeros((40, 16, 16)))
        assert np.abs(C1 - C2).max() == 0.0

    def test_rejects_2d_pair(self, rng):
        A = rng.standard_normal((8, 8))
        with pytest.raises(ValueError):
            multiply_batched(A, A)

    def test_rejects_batch_mismatch(self, rng):
        with pytest.raises(ValueError):
            multiply_batched(
                rng.standard_normal((3, 8, 8)), rng.standard_normal((2, 8, 8))
            )


class TestDtypePreservation:
    @pytest.mark.parametrize("engine", ["direct", "blocked"])
    def test_float32_preserved(self, rng, engine):
        A = rng.standard_normal((48, 48)).astype(np.float32)
        B = rng.standard_normal((48, 48)).astype(np.float32)
        C = multiply(A, B, algorithm="strassen", levels=2, engine=engine)
        assert C.dtype == np.float32

    def test_float32_accuracy_bound(self, rng):
        # 2-level Strassen amplifies roundoff by a modest constant; stay
        # within ~100x float32 eps relative to the result magnitude.
        A = rng.standard_normal((96, 96)).astype(np.float32)
        B = rng.standard_normal((96, 96)).astype(np.float32)
        C = multiply(A, B, algorithm="strassen", levels=2)
        ref = A.astype(np.float64) @ B.astype(np.float64)
        rel = np.abs(C - ref).max() / np.abs(ref).max()
        assert rel < 100 * np.finfo(np.float32).eps

    def test_float64_default_unchanged(self, rng):
        A = rng.standard_normal((32, 32))
        C = multiply(A, A)
        assert C.dtype == np.float64

    def test_explicit_dtype_override(self, rng):
        A = rng.standard_normal((32, 32))
        C = multiply(A, A, dtype=np.float32)
        assert C.dtype == np.float32

    def test_batched_float32(self, rng):
        A = rng.standard_normal((4, 32, 32)).astype(np.float32)
        B = rng.standard_normal((4, 32, 32)).astype(np.float32)
        C = multiply_batched(A, B)
        assert C.dtype == np.float32
        assert np.abs(C - A @ B).max() < 1e-3

    def test_int_inputs_still_promote(self):
        A = np.arange(16).reshape(4, 4)
        C = multiply(A, np.eye(4, dtype=int))
        assert C.dtype == np.float64
        assert np.allclose(C, A)

    def test_engine_accepts_integer_c(self, rng):
        # Regression: feeding integer operands straight to the engine (as
        # the classic DirectEngine allowed for +-1-coefficient algorithms)
        # must not crash on casting the float compute dtype into C.
        A = rng.integers(-5, 5, size=(8, 8))
        B = rng.integers(-5, 5, size=(8, 8))
        C = np.zeros((8, 8), dtype=np.int64)
        DirectEngine().multiply(A, B, C, resolve_levels("strassen", 1))
        assert C.dtype == np.int64
        assert np.array_equal(C, A @ B)


class TestAutoDispatch:
    def test_auto_engine_correct(self, rng):
        A = rng.standard_normal((100, 90))
        B = rng.standard_normal((90, 110))
        C = multiply(A, B, engine="auto")
        assert np.abs(C - A @ B).max() < 1e-9

    def test_auto_config_large_problem_uses_fmm(self):
        import os

        from repro.core.selection import auto_config

        # A claim about the model, not this host: pin the generic machine
        # (a wisdom miss would price with this host's calibration).
        algorithm, levels, variant, engine, threads, backend, workers = (
            auto_config(1536, 1536, 1536, tune="off")
        )
        assert engine == "direct"
        assert variant in ("naive", "ab", "abc")
        assert algorithm != "classical" and levels >= 1
        assert 1 <= threads <= (os.cpu_count() or 1)
        assert workers in ("threads", "processes")

    def test_auto_config_tiny_problem_falls_back(self):
        from repro.core.selection import auto_config

        algorithm, levels, variant, engine, threads, backend, workers = (
            auto_config(4, 4, 4, tune="off")
        )
        assert algorithm == "classical"
        # One BLAS call: a classical pick is always the serial config.
        assert (threads, backend, workers) == (1, "reference", "threads")

    def test_apply_once_uses_plan_cache(self, rng):
        from repro.algorithms.strassen import strassen

        s = strassen()
        A = rng.standard_normal((8, 8))
        s.apply_once(A, A.copy(), np.zeros((8, 8)))
        s.apply_once(A, A.copy(), np.zeros((8, 8)))
        info = plancache.plan_cache_info()
        assert info.misses == 1 and info.hits == 1
