"""Tests for the lowering runtime."""

import numpy as np
import pytest

from repro.core import compile as plancache
from repro.core import runtime, spec
from repro.core.runtime import execute_plan
from repro.core.workspace import WorkspaceArena
from repro.obs import trace


@pytest.fixture(autouse=True)
def fresh_cache():
    plancache.plan_cache_clear()
    yield
    plancache.plan_cache_clear()


def phase_spans(cplan, A, B, C, **kw) -> list[str]:
    """The ``phase:<kind>`` span names of one execution, in order."""
    trace.enable()
    trace.clear()
    try:
        execute_plan(cplan, A, B, C, **kw)
        names = [r.name for r in trace.drain()]
    finally:
        trace.disable()
    return [n[len("phase:"):] for n in names if n.startswith("phase:")]


class TestLowering:
    def test_phase_structure(self, rng):
        cplan = plancache.compile((64, 64, 64), "strassen", levels=1,
                                  fusion="staged")
        A = rng.standard_normal((64, 64))
        kinds = phase_spans(cplan, A, A, np.zeros((64, 64)))
        # Both gathers, then the products, then the scatter; no fringes.
        assert kinds == ["gather_a", "gather_b", "product", "scatter"]

    def test_tasks_cover_index_spaces_exactly_once(self, rng):
        """Every operand block is gathered, every product computed and
        every destination block updated exactly once, in each lowering:
        a skipped or doubled one would show in ``C0 + A @ B``."""
        cplan = plancache.compile((96, 96, 96), "strassen", levels=2)
        A = rng.standard_normal((96, 96))
        B = rng.standard_normal((96, 96))
        C0 = rng.standard_normal((96, 96))
        for fusion in ("staged", "fused", "tiled"):
            C = execute_plan(cplan, A, B, C0.copy(), fusion=fusion)
            assert np.abs(C - (C0 + A @ B)).max() < 1e-9, fusion

    def test_scatter_tasks_are_write_disjoint(self):
        """The scatter phase updates C's destination blocks in place
        with no reduction, so the blocks must tile C's core exactly:
        pairwise disjoint and covering every element once."""
        cplan = plancache.compile((64, 64, 64), "strassen", levels=2)
        C = np.zeros((64, 64))
        views = cplan.block_views(C, "C", 16, 16)
        for v in views:
            v += 1.0
        assert np.array_equal(C, np.ones((64, 64)))
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(views) for b in views[i + 1:])

    def test_fringe_tasks_emitted_for_peeled_shapes(self, rng):
        cplan = plancache.compile((17, 19, 23), "strassen", levels=1)
        A = rng.standard_normal((17, 19))
        B = rng.standard_normal((19, 23))
        assert "fringe" in phase_spans(cplan, A, B, np.zeros((17, 23)))

    def test_lowering_is_memoized(self):
        """The compiled plan carries its resolved lowering and is cached:
        the same request is one object, another lowering another."""
        staged = plancache.compile((64, 64, 64), "strassen", fusion="staged")
        assert plancache.compile((64, 64, 64), "strassen",
                                 fusion="staged") is staged
        fused = plancache.compile((64, 64, 64), "strassen", fusion="fused")
        assert fused is not staged and fused.fusion == "fused"

    def test_workers_validated(self, rng):
        """One worker per execution: any other thread count is refused
        before any work."""
        cplan = plancache.compile((8, 8, 8), "strassen")
        A = rng.standard_normal((8, 8))
        C = np.zeros((8, 8))
        for bad in (2, 4):
            with pytest.raises(ValueError, match="threads"):
                execute_plan(cplan, A, A, C, threads=bad)
        assert not C.any()


class TestExecution:
    @pytest.mark.parametrize("threads", [1])
    @pytest.mark.parametrize(
        "spec,levels,shape",
        [
            ("strassen", 1, (32, 32, 32)),
            ("strassen", 2, (36, 40, 44)),
            ((3, 2, 3), 1, (33, 22, 33)),
            (["strassen", "<3,3,3>"], 1, (48, 48, 48)),
        ],
    )
    def test_matches_numpy(self, rng, threads, spec, levels, shape):
        m, k, n = shape
        cplan = plancache.compile(shape, spec, levels=levels)
        A = rng.standard_normal((m, k))
        B = rng.standard_normal((k, n))
        C = execute_plan(cplan, A, B, np.zeros((m, n)), threads=threads)
        assert np.abs(C - A @ B).max() < 1e-9

    @pytest.mark.parametrize("threads", [1])
    def test_peeled_shapes(self, rng, threads):
        for shape in [(17, 19, 23), (4, 100, 4), (101, 3, 57)]:
            m, k, n = shape
            cplan = plancache.compile(shape, "strassen", levels=2)
            A = rng.standard_normal((m, k))
            B = rng.standard_normal((k, n))
            C = execute_plan(cplan, A, B, np.zeros((m, n)), threads=threads)
            assert np.abs(C - A @ B).max() < 1e-9, shape

    def test_threads_agree_with_serial(self, rng):
        """The ledger's ``threads=1`` and the default are one execution."""
        cplan = plancache.compile((96, 96, 96), "strassen", levels=2)
        A = rng.standard_normal((96, 96))
        B = rng.standard_normal((96, 96))
        C1 = execute_plan(cplan, A, B, np.zeros((96, 96)), threads=1)
        C = execute_plan(cplan, A, B, np.zeros((96, 96)))
        assert np.array_equal(C, C1)

    def test_batched_stack(self, rng):
        cplan = plancache.compile((24, 24, 24), "strassen", levels=1)
        A = rng.standard_normal((9, 24, 24))
        B = rng.standard_normal((9, 24, 24))
        C = execute_plan(cplan, A, B, np.zeros((9, 24, 24)))
        assert np.abs(C - A @ B).max() < 1e-10

    def test_accumulates_into_c(self, rng):
        cplan = plancache.compile((8, 8, 8), "strassen")
        A = rng.standard_normal((8, 8))
        C = execute_plan(cplan, A, A, np.ones((8, 8)))
        assert np.allclose(C, 1.0 + A @ A)

    def test_step_fallback_when_workspace_capped(self, rng):
        cplan = plancache.compile((52, 52, 52), "strassen", levels=2)
        A = rng.standard_normal((52, 52))
        B = rng.standard_normal((52, 52))
        C_graph = execute_plan(cplan, A, B, np.zeros((52, 52)))
        C_steps = execute_plan(cplan, A, B, np.zeros((52, 52)), vector_cap=0)
        assert np.abs(C_graph - C_steps).max() < 1e-10

    def test_integer_c_preserved_via_step_path(self, rng):
        cplan = plancache.compile((8, 8, 8), "strassen")
        A = rng.integers(-5, 5, size=(8, 8))
        B = rng.integers(-5, 5, size=(8, 8))
        C = np.zeros((8, 8), dtype=np.int64)
        execute_plan(cplan, A, B, C)
        assert C.dtype == np.int64
        assert np.array_equal(C, A @ B)

    def test_shape_mismatch_raises(self, rng):
        cplan = plancache.compile((16, 16, 16), "strassen")
        A = rng.standard_normal((8, 8))
        with pytest.raises(ValueError):
            execute_plan(cplan, A, A, np.zeros((8, 8)))

    def test_bad_threads_raise(self, rng):
        cplan = plancache.compile((8, 8, 8), "strassen")
        A = rng.standard_normal((8, 8))
        with pytest.raises(ValueError):
            execute_plan(cplan, A, A, np.zeros((8, 8)), threads=0)


class TestArenaIntegration:
    def test_private_arena_reused_across_calls(self, rng):
        arena = WorkspaceArena()
        cplan = plancache.compile((32, 32, 32), "strassen")
        A = rng.standard_normal((32, 32))
        execute_plan(cplan, A, A, np.zeros((32, 32)), arena=arena)
        first = arena.stats().allocations
        for _ in range(4):
            execute_plan(cplan, A, A, np.zeros((32, 32)), arena=arena)
        st = arena.stats()
        assert st.allocations == first
        assert st.reuses == 4
        assert st.in_use == 0

    def test_distinct_plans_get_distinct_workspaces(self, rng):
        arena = WorkspaceArena()
        for size in (16, 32):
            cplan = plancache.compile((size, size, size), "strassen")
            A = rng.standard_normal((size, size))
            execute_plan(cplan, A, A, np.zeros((size, size)), arena=arena)
        assert arena.stats().allocations == 2


class TestCrossPlanReuse:
    PLANS = [
        ("strassen", 1, (64, 64, 64)),
        ("strassen", 2, (96, 96, 96)),
        ("<3,2,3>", 1, (90, 64, 72)),
        ("strassen+<3,3,3>", 1, (100, 104, 96)),
    ]

    @pytest.fixture(autouse=True)
    def _capped_budget(self):
        # Tiled executions stream through small strip windows.
        spec.set_runtime_tunables(mem_budget_bytes=256 * 1024)
        yield
        spec.set_runtime_tunables()

    def test_shuffled_plans_on_one_arena_match_fresh_arenas(self, rng):
        """Blocks carry bytes from one plan into the next: on an arena
        whose blocks start as all-ones bytes (NaN in float32 and
        float64), every output and peak_workspace_bytes equals a
        fresh-arena run of the same call bit for bit."""
        arena = WorkspaceArena()
        fill = arena.acquire(("nan",), lambda: {
            "ram": ((8 << 20,), np.uint8),
            "disk": ((8 << 20,), np.uint8, "mmap"),
        })
        for buf in fill.buffers.values():
            buf.fill(0xFF)
        arena.release(fill)
        cases = [(p, fusion, dt, batch)
                 for p in self.PLANS
                 for fusion in ("staged", "fused", "tiled")
                 for dt in (np.float32, np.float64)
                 for batch in (0, 3)]
        for i in np.concatenate([rng.permutation(len(cases))] * 2):
            (algo, levels, (m, k, n)), fusion, dt, batch = cases[i]
            lead = (batch,) if batch else ()
            A = rng.standard_normal(lead + (m, k)).astype(dt)
            B = rng.standard_normal(lead + (k, n)).astype(dt)
            C0 = rng.standard_normal(lead + (m, n)).astype(dt)
            cplan = plancache.compile((m, k, n), algo, levels, dtype=dt,
                                      fusion=fusion)
            got = execute_plan(cplan, A, B, C0.copy(), arena=arena)
            rep = runtime.last_report()
            assert (rep.core_path, rep.fusion) == ("graph", fusion)
            got_peak = rep.peak_workspace_bytes
            want = execute_plan(cplan, A, B, C0.copy(),
                                arena=WorkspaceArena())
            want_peak = runtime.last_report().peak_workspace_bytes
            assert got.tobytes() == want.tobytes(), cases[i]
            assert got_peak == want_peak, cases[i]
        # Every execution ran on the two pre-filled blocks.
        st = arena.stats()
        assert st.allocations == 2 and st.free == 2


class TestPools:
    def test_pools_are_reused(self, rng):
        """The runtime owns no pools: ``shutdown_pools`` (which the perf
        ledger calls) is a no-op that leaves execution working."""
        cplan = plancache.compile((16, 16, 16), "strassen")
        A = rng.standard_normal((16, 16))
        before = execute_plan(cplan, A, A, np.zeros((16, 16)))
        assert runtime.shutdown_pools() is None
        after = execute_plan(cplan, A, A, np.zeros((16, 16)))
        assert np.array_equal(before, after)

    def test_bad_worker_count(self):
        """The one pool left is the blocked engine's 3rd-loop pool, sized
        per call; a non-positive width is refused up front."""
        from repro.core.executor import BlockedEngine

        for bad in (0, -2):
            with pytest.raises(ValueError, match="threads"):
                BlockedEngine(threads=bad)
