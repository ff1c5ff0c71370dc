"""Tests for the workspace arena allocator."""

import gc
import itertools
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.core import workspace
from repro.core.workspace import WorkspaceArena, arena_clear, arena_stats


@pytest.fixture
def arena():
    return WorkspaceArena()


def spec_small():
    return {"x": ((4, 4), np.dtype(np.float64)), "y": ((2, 8), np.dtype(np.float32))}


def spec_of(elems, spill=0):
    """A float64 spec of ``elems`` RAM elements (+ ``spill`` on disk)."""
    def spec():
        out = {"a": ((elems,), np.float64), "b": ((3, 5), np.float32)}
        if spill:
            out["d"] = ((spill,), np.float64, "mmap")
        return out
    return spec


def assert_disjoint(workspaces):
    """No buffer of one workspace shares memory with another's."""
    bufs = [(i, b) for i, ws in enumerate(workspaces)
            for b in ws.buffers.values()]
    for (i, a), (j, b) in itertools.combinations(bufs, 2):
        if i != j:
            assert not np.shares_memory(a, b)


class TestArena:
    def test_acquire_builds_buffers(self, arena):
        ws = arena.acquire(("k",), spec_small)
        assert ws["x"].shape == (4, 4) and ws["x"].dtype == np.float64
        assert ws["y"].shape == (2, 8) and ws["y"].dtype == np.float32
        assert ws.nbytes == 4 * 4 * 8 + 2 * 8 * 4

    def test_release_then_reacquire_reuses(self, arena):
        ws = arena.acquire(("k",), spec_small)
        arena.release(ws)
        again = arena.acquire(("k",), spec_small)
        assert again is ws
        st = arena.stats()
        assert st.allocations == 1 and st.reuses == 1

    def test_spec_factory_not_called_on_reuse(self, arena):
        calls = []

        def spec():
            calls.append(1)
            return spec_small()

        arena.release(arena.acquire(("k",), spec))
        arena.release(arena.acquire(("k",), spec))
        assert len(calls) == 1

    def test_distinct_keys_share_a_block_in_turn(self, arena):
        """Keys take turns on one idle block; held together they never
        share memory."""
        w1 = arena.acquire(("a",), spec_small)
        arena.release(w1)
        w2 = arena.acquire(("b",), spec_small)
        assert w2 is not w1 and w2.key == ("b",)
        assert np.shares_memory(w2["x"], w1["x"])
        st = arena.stats()
        assert st.allocations == 1 and st.reuses == 1
        w3 = arena.acquire(("a",), spec_small)  # a's block is checked out
        assert w3 is not w1
        assert_disjoint([w2, w3])
        assert arena.stats().allocations == 2

    def test_concurrent_acquires_get_distinct_workspaces(self, arena):
        """Two in-flight checkouts of one key never alias."""
        w1 = arena.acquire(("k",), spec_small)
        w2 = arena.acquire(("k",), spec_small)
        assert w1 is not w2
        assert arena.stats().allocations == 2
        arena.release(w1)
        arena.release(w2)
        assert arena.stats().free == 2

    def test_clear_resets(self, arena):
        arena.release(arena.acquire(("k",), spec_small))
        arena.clear()
        st = arena.stats()
        assert st == (0,) * len(st)

    def test_idle_pool_bounded_by_max_bytes(self):
        nbytes = 4 * 4 * 8 + 2 * 8 * 4
        arena = WorkspaceArena(max_bytes=nbytes)  # room for exactly one
        w1 = arena.acquire(("a",), spec_small)
        w2 = arena.acquire(("b",), spec_small)
        arena.release(w1)
        arena.release(w2)  # over the idle bound -> dropped, not pooled
        st = arena.stats()
        assert st.free == 1
        assert st.bytes_pooled == nbytes <= arena.max_bytes
        # The hot config still reuses its pooled workspace.
        assert arena.acquire(("a",), spec_small) is w1

    def test_in_use_and_peak_bytes_tracked(self, arena):
        nbytes = 4 * 4 * 8 + 2 * 8 * 4
        w1 = arena.acquire(("a",), spec_small)
        assert arena.stats().bytes_in_use == nbytes
        w2 = arena.acquire(("b",), spec_small)
        assert arena.stats().bytes_in_use == 2 * nbytes
        assert arena.stats().peak_bytes == 2 * nbytes
        arena.release(w1)
        arena.release(w2)
        st = arena.stats()
        assert st.bytes_in_use == 0
        assert st.peak_bytes == 2 * nbytes  # high-water is sticky

    def test_meter_windows_measure_per_execution_peak(self, arena):
        nbytes = 4 * 4 * 8 + 2 * 8 * 4
        # A workspace held before the window does not count against it.
        outside = arena.acquire(("pre",), spec_small)
        meter = arena.start_meter()
        w1 = arena.acquire(("a",), spec_small)
        w2 = arena.acquire(("b",), spec_small)
        arena.release(w1)
        arena.release(w2)
        assert arena.finish_meter(meter) == 2 * nbytes
        arena.release(outside)
        # A quiet window measures zero; finishing twice is idempotent.
        meter = arena.start_meter()
        assert arena.finish_meter(meter) == 0
        assert arena.finish_meter(meter) == 0

    def test_meter_counts_reused_workspaces(self, arena):
        nbytes = 4 * 4 * 8 + 2 * 8 * 4
        arena.release(arena.acquire(("k",), spec_small))  # pre-pool
        meter = arena.start_meter()
        arena.release(arena.acquire(("k",), spec_small))  # pure reuse
        assert arena.finish_meter(meter) == nbytes

    def test_thread_safety_smoke(self, arena):
        errors = []
        held = []
        held_lock = threading.Lock()

        def worker(t):
            try:
                for i in range(50):
                    # Two keys of different sizes trade blocks between
                    # threads; whatever is checked out at once is disjoint.
                    key = ("k", (t + i) % 2)
                    ws = arena.acquire(key, spec_of(16 + 48 * key[1]))
                    with held_lock:
                        assert_disjoint(held + [ws])
                        held.append(ws)
                    ws["a"][:] = t
                    assert (ws["a"] == t).all()
                    with held_lock:
                        held.remove(ws)
                    arena.release(ws)
            except Exception as e:  # pragma: no cover
                errors.append(e)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        st = arena.stats()
        assert st.in_use == 0
        assert st.allocations + st.reuses == 200


class TestBlockRecycling:
    """The arena pools byte blocks by size, not workspaces by key."""

    def test_growing_keys_idle_at_one_block(self, arena):
        """Distinct keys used in turn with growing sizes leave one idle
        block, the largest: each bigger need drops the smaller blocks."""
        sizes = []
        for i, elems in enumerate((64, 256, 1024, 4096)):
            ws = arena.acquire(("k", i), spec_of(elems))
            sizes.append(ws.blocks[0].nbytes)
            arena.release(ws)
        st = arena.stats()
        assert st.free == 1
        assert st.bytes_pooled == max(sizes) == sizes[-1]
        assert st.allocations == 4
        # Every smaller key is now carved from that one block.
        for i, elems in enumerate((64, 256, 1024)):
            arena.release(arena.acquire(("k", i), spec_of(elems)))
        st = arena.stats()
        assert st.allocations == 4 and st.reuses == 3
        assert st.free == 1 and st.bytes_pooled == sizes[-1]

    def test_meters_charge_buffer_bytes_not_block_size(self, arena):
        arena.release(arena.acquire(("big",), spec_of(4096)))
        meter = arena.start_meter()
        ws = arena.acquire(("small",), spec_small)
        assert arena.stats().bytes_in_use == ws.ram_nbytes == ws.nbytes
        arena.release(ws)
        assert arena.finish_meter(meter) == 4 * 4 * 8 + 2 * 8 * 4

    def test_buffers_are_aligned_disjoint_views_of_one_block(self, arena):
        ws = arena.acquire(("k",), spec_of(7, spill=5))
        ram, disk = ws.blocks
        for name, buf in ws.buffers.items():
            block = disk if name in ws.mmap_names else ram
            assert buf.base is block and buf.flags.c_contiguous
            offset = buf.ctypes.data - block.ctypes.data
            assert offset % workspace.ALIGN == 0
        for a, b in itertools.combinations(ws.buffers.values(), 2):
            assert not np.shares_memory(a, b)
        assert ws.mmap_names == {"d"} and ws.mmap_nbytes == 5 * 8
        arena.release(ws)

    def test_dropped_block_is_freed_with_gc_off(self, arena):
        """No reference cycle keeps a dropped block (or its mapping) alive
        until a collection runs."""
        ws = arena.acquire(("small",), spec_of(64, spill=64))
        ram = weakref.ref(ws.blocks[0])
        arena.release(ws)
        del ws
        assert arena.stats().mmap_open == 1
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            big = arena.acquire(("big",), spec_of(4096, spill=4096))
            assert ram() is None
            assert arena.stats().mmap_open == 1  # the old mapping closed
            arena.release(big)
            del big
            arena.clear()
            assert arena.stats().mmap_open == 0
        finally:
            if was_enabled:
                gc.enable()

    def test_spilled_and_ram_blocks_recycle_independently(self, arena):
        """A RAM-only key may take the RAM block of an idle spilled
        workspace; that workspace is then carved afresh, never handed
        out with a block someone else holds."""
        tiled = arena.acquire(("tiled",), spec_of(32, spill=512))
        arena.release(tiled)
        staged = arena.acquire(("staged",), spec_of(16))
        assert staged.blocks[0] is tiled.blocks[0]
        again = arena.acquire(("tiled",), spec_of(32, spill=512))
        assert again is not tiled
        assert again.blocks[1] is tiled.blocks[1]  # disk block reused
        assert_disjoint([staged, again])
        arena.release(staged)
        arena.release(again)
        assert arena.stats().free == 3  # two RAM blocks, one disk block

    def test_block_over_the_idle_bound_is_not_pooled(self):
        arena = WorkspaceArena(max_bytes=1024, max_mmap_bytes=1024)
        arena.release(arena.acquire(("big",), spec_of(4096)))
        assert arena.stats().free == 0
        # Disk block over its bound: the RAM block is pooled alone, and
        # the workspace is not handed out again without its disk part.
        ws = arena.acquire(("t",), spec_of(8, spill=4096))
        arena.release(ws)
        st = arena.stats()
        assert st.free == 1 and st.bytes_pooled == ws.blocks[0].nbytes
        again = arena.acquire(("t",), spec_of(8, spill=4096))
        assert again is not ws and again.blocks[0] is ws.blocks[0]
        arena.release(again)

    def test_layout_memo_is_bounded_and_cleared(self, arena):
        calls = []

        def spec():
            calls.append(1)
            return spec_small()

        arena.release(arena.acquire(("k",), spec))
        arena.release(arena.acquire(("other",), spec_of(8)))
        arena.release(arena.acquire(("k",), spec))  # recarved, memo hit
        assert len(calls) == 1
        arena.clear()
        arena.release(arena.acquire(("k",), spec))
        assert len(calls) == 2
        for i in range(workspace.MAX_LAYOUTS):
            arena.release(arena.acquire(("fill", i), spec_small))
        arena.release(arena.acquire(("k",), spec))  # evicted: rebuilt
        assert len(calls) == 3


class TestGlobalArena:
    def test_stats_and_clear_roundtrip(self):
        from repro.core.executor import multiply

        arena_clear()
        rng = np.random.default_rng(0)
        A = rng.standard_normal((32, 32))
        multiply(A, A, algorithm="strassen", levels=1)
        st = arena_stats()
        assert st.allocations >= 1 and st.in_use == 0
        arena_clear()
        assert arena_stats().allocations == 0
