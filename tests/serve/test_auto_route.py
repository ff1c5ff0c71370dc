"""The service default: auto's memoized route, one BLAS call per job.

A job that names no schedule resolves like ``multiply(A, B,
engine="auto")``; a classical pick runs as its own ``np.matmul`` into a
fresh array, never stacked and never held for a batch window.  Pinned
jobs keep the coalesced plan path.  These tests pin the results (bitwise
against the direct calls), array ownership, exactly-once delivery under
concurrent load, and that a new machine record re-resolves the route.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np
import pytest

from repro.core import selection
from repro.core.executor import multiply
from repro.model.machines import MachineParams, generic_laptop
from repro.serve import MultiplyService
from repro.serve.testing import FaultInjectingExecutor, ServiceTestClock
from repro.tune import WisdomStore, set_default_store

#: The ledger's serve job mix: shape and dtype.
SERVE_SHAPES = [((64, 64, 64), np.float64), ((96, 96, 96), np.float64),
                ((128, 128, 128), np.float32)]

#: A machine whose model sends 96^3 to Strassen: flops are all it prices.
FLOP_BOUND = MachineParams("flop-bound", peak_gflops_per_core=0.01,
                           bandwidth_gbs=1e5, cores=1, lam=0.5)


@pytest.fixture
def store(tmp_path):
    """The default store, priced with the generic machine (classical at
    every serve shape)."""
    s = WisdomStore(tmp_path / "wisdom.json")
    s.record_machine(generic_laptop())
    set_default_store(s)
    yield s
    set_default_store(None)


@pytest.fixture
def decisions(monkeypatch):
    """Every ``auto_config`` call a route resolution makes."""
    calls = []
    real = selection.auto_config

    def spy(*args, **kwargs):
        calls.append(args[:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(selection, "auto_config", spy)
    return calls


def _operands(rng, shape, dtype, order="C"):
    m, k, n = shape
    A = np.asarray(rng.standard_normal((m, k)).astype(dtype), order=order)
    B = rng.standard_normal((k, n)).astype(dtype)
    return A, B


class TestDefaultJobIsOneBlasCall:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bitwise_matmul_with_no_workspace(self, store, rng, dtype, order):
        A, B = _operands(rng, (64, 48, 80), dtype, order)
        want = np.matmul(np.ascontiguousarray(A, dtype),
                         np.ascontiguousarray(B, dtype))
        with MultiplyService() as svc:
            h = svc.submit(A, B)
            C = h.result(timeout=30.0)
        assert C.dtype == dtype
        assert np.array_equal(C, want)
        assert np.array_equal(C, multiply(A, B, engine="auto"))
        rep = h.report()
        assert rep.core_path == "blas"
        assert rep.peak_workspace_bytes == 0
        assert h.batch_size == 1

    def test_integer_operands_promote_like_multiply(self, store, rng):
        A = rng.integers(-9, 9, (40, 30))
        B = rng.integers(-9, 9, (30, 20))
        with MultiplyService() as svc:
            C = svc.submit(A, B).result(timeout=30.0)
        assert C.dtype == np.float64
        assert np.array_equal(C, multiply(A, B, engine="auto"))

    def test_blas_jobs_never_wait_for_a_window(self, store, rng):
        A, B = _operands(rng, (96, 96, 96), np.float64)
        # Frozen time: a pinned job would sit in its window forever.
        ex = FaultInjectingExecutor()
        svc = MultiplyService(clock=ServiceTestClock(), batch_window_s=10.0,
                              executor=ex)
        try:
            handles = [svc.submit(A, B) for _ in range(4)]
            for h in handles:
                h.result(timeout=30.0)
            assert ex.calls == [[h.id] for h in handles]
        finally:
            svc.shutdown(timeout=30.0)

    def test_blas_job_is_priced_at_operand_and_result_bytes(self, store, rng):
        from repro.serve import ServiceOverloadedError

        A, B = _operands(rng, (64, 48, 80), np.float32)
        svc = MultiplyService(byte_budget=1, policy="reject")
        try:
            with pytest.raises(ServiceOverloadedError) as ei:
                svc.submit(A, B)
        finally:
            svc.shutdown()
        assert ei.value.job_bytes == (64 * 48 + 48 * 80 + 64 * 80) * 4

    def test_any_spec_argument_pins_the_schedule(self, store, rng):
        A, B = _operands(rng, (64, 64, 64), np.float64)
        with MultiplyService() as svc:
            h_levels = svc.submit(A, B, levels=2)
            h_variant = svc.submit(A, B, variant="naive")
            h_alg = svc.submit(A, B, algorithm="<3,3,3>")
            for h in (h_levels, h_variant, h_alg):
                h.result(timeout=30.0)
        assert h_levels.report().schedule == "<2,2,2>@2"
        assert np.array_equal(h_levels.result(), multiply(A, B, levels=2))
        assert h_variant.report().variant == "naive"
        assert np.array_equal(h_variant.result(),
                              multiply(A, B, variant="naive"))
        assert h_alg.report().schedule == "<3,3,3>@1"

    def test_spec_and_operand_errors_stay_synchronous(self, store, rng):
        A, B = _operands(rng, (64, 64, 64), np.float64)
        with MultiplyService() as svc:
            with pytest.raises(TypeError, match="complex"):
                svc.submit(A.astype(np.complex128), B)
            with pytest.raises(ValueError):
                svc.submit(A, B, dtype=np.int32)
            with pytest.raises(ValueError):
                svc.submit(A, B, fusion="bogus")
            assert svc.stats()["submitted"] == 0


class TestOwnArrays:
    def test_no_two_results_of_a_claimed_batch_share_memory(self, store, rng):
        A, B = _operands(rng, (48, 48, 48), np.float64)
        clock = ServiceTestClock()
        ex = FaultInjectingExecutor()
        svc = MultiplyService(batch_window_s=1.0, max_batch=8, clock=clock,
                              executor=ex)
        try:
            pinned = [svc.submit(A, B, algorithm="strassen") for _ in range(6)]
            blas = [svc.submit(A, B) for _ in range(3)]
            clock.run_until(lambda: all(h.done() for h in pinned + blas))
        finally:
            svc.shutdown(timeout=30.0)
        assert [h.id for h in pinned] in ex.calls
        results = [h.result() for h in pinned + blas]
        for C in results:
            assert C.flags.owndata
        for X, Y in itertools.combinations(results, 2):
            assert not np.shares_memory(X, Y)
        ref = multiply(A, B, algorithm="strassen")
        assert all(np.array_equal(h.result(), ref) for h in pinned)


class TestConcurrentMixedLoad:
    def test_exactly_once_and_bitwise_under_four_submitters(self, store, rng):
        pools = []
        for shape, dtype in SERVE_SHAPES:
            for _ in range(3):
                A, B = _operands(rng, shape, dtype)
                pools.append((A, B, multiply(A, B, engine="auto"),
                              multiply(A, B, algorithm="strassen")))
        ex = FaultInjectingExecutor()
        handles = []
        lock = threading.Lock()

        def submitter(seed):
            pick = np.random.default_rng(seed)
            mine = []
            for _ in range(250):
                i = int(pick.integers(len(pools)))
                pinned = bool(pick.integers(4) == 0)
                A, B = pools[i][:2]
                h = (svc.submit(A, B, algorithm="strassen") if pinned
                     else svc.submit(A, B))
                mine.append((h, i, pinned))
            with lock:
                handles.extend(mine)

        svc = MultiplyService(executor=ex)
        try:
            threads = [threading.Thread(target=submitter, args=(s,))
                       for s in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for h, _, _ in handles:
                h.result(timeout=60.0)
        finally:
            assert svc.shutdown(drain=True, timeout=60.0)

        assert len(handles) == 1000
        seen = [jid for call in ex.calls for jid in call]
        assert sorted(seen) == sorted(h.id for h, _, _ in handles)
        st = svc.stats()
        assert st["completed"] == 1000 and st["errors"] == 0
        assert st["queue_depth"] == 0 and st["pending_bytes"] == 0
        for h, i, pinned in handles:
            C = h.result()
            want = pools[i][3] if pinned else pools[i][2]
            assert C.dtype == want.dtype
            assert np.array_equal(C, want), (h, pinned)
            assert (h.report().core_path == "blas") != pinned


class TestRouteFollowsTheMachine:
    def test_record_machine_between_submits_re_resolves(self, store,
                                                        decisions, rng):
        A, B = _operands(rng, (96, 96, 96), np.float64)
        with MultiplyService() as svc:
            first = svc.submit(A, B)
            again = svc.submit(A, B)
            for h in (first, again):
                h.result(timeout=30.0)
            assert len(decisions) == 1
            assert first.report().core_path == "blas"
            store.record_machine(FLOP_BOUND)
            fmm = svc.submit(A, B)
            C = fmm.result(timeout=30.0)
        assert len(decisions) == 2
        assert fmm.report().core_path != "blas"
        assert fmm.report().schedule != "classical@1"
        assert np.array_equal(C, multiply(A, B, engine="auto"))
        assert len(decisions) == 2
