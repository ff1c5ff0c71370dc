"""MultiplyService basics: lifecycle, correctness, admission control.

Everything time-sensitive here runs through the deterministic seams in
``repro.serve.testing``; no test sleeps a wall-clock coalescing window.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.executor import multiply
from repro.obs import metrics as obs_metrics
from repro.serve import (
    JOB_STATUSES,
    JobCancelledError,
    MultiplyService,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.serve.testing import FaultInjectingExecutor, ServiceTestClock


@pytest.fixture
def ops(rng):
    A = rng.standard_normal((64, 64))
    B = rng.standard_normal((64, 64))
    return A, B


def priced_bytes(A, B) -> int:
    """What the service charges one default (A, B) job: probed via a
    throwaway 1-byte-budget service so tests size budgets off the real
    price instead of hardcoding model output."""
    svc = MultiplyService(byte_budget=1, policy="reject")
    try:
        with pytest.raises(ServiceOverloadedError) as ei:
            svc.submit(A, B)
        return ei.value.job_bytes
    finally:
        svc.shutdown()


def wait_for(predicate, timeout_s: float = 10.0) -> None:
    """Poll a cheap predicate without asserting any particular timing."""
    done = threading.Event()
    for _ in range(int(timeout_s / 0.005)):
        if predicate():
            return
        done.wait(0.005)
    raise TimeoutError("predicate never became true")


class TestJobLifecycle:
    def test_submit_returns_completing_handle(self, ops):
        A, B = ops
        with MultiplyService() as svc:
            h = svc.submit(A, B)
            C = h.result(timeout=30.0)
            assert h.status == "complete"
            assert h.done()
            assert h.id.startswith("job-")
            assert np.array_equal(C, multiply(A, B, engine="auto"))

    def test_statuses_are_the_documented_set(self):
        assert JOB_STATUSES == (
            "pending", "running", "complete", "error", "cancelled")

    def test_result_bitwise_equal_to_direct_multiply(self, ops):
        A, B = ops
        with MultiplyService() as svc:
            handles = [svc.submit(A, B, levels=2) for _ in range(6)]
            ref = multiply(A, B, levels=2)
            for h in handles:
                assert np.array_equal(h.result(timeout=30.0), ref)

    def test_spec_errors_raise_synchronously_in_the_caller(self, ops):
        A, B = ops
        with MultiplyService() as svc:
            with pytest.raises(ValueError, match="2-D"):
                svc.submit(np.zeros((2, 64, 64)), B)
            with pytest.raises(ValueError, match="incompatible"):
                svc.submit(A, np.zeros((63, 64)))
            with pytest.raises(ValueError):
                svc.submit(A, B, variant="bogus")
            assert svc.stats()["submitted"] == 0

    def test_no_thread_count_anywhere(self, ops):
        """Jobs run on one worker and BLAS threads their leaf products:
        neither the service nor a submit takes a thread count."""
        A, B = ops
        with pytest.raises(TypeError, match="threads"):
            MultiplyService(threads=2)
        with MultiplyService() as svc:
            with pytest.raises(TypeError, match="threads"):
                svc.submit(A, B, threads=2)
            assert svc.stats()["submitted"] == 0
            h = svc.submit(A, B, algorithm="strassen")
            np.testing.assert_array_equal(
                h.result(timeout=30.0), multiply(A, B, algorithm="strassen"))
            assert h.report().threads == 1

    def test_result_timeout_raises(self, ops):
        A, B = ops
        ex = FaultInjectingExecutor()
        gate = ex.push_block()
        svc = MultiplyService(executor=ex)
        try:
            h = svc.submit(A, B)
            with pytest.raises(TimeoutError):
                h.result(timeout=0.05)
        finally:
            gate.set()
            assert svc.shutdown(timeout=30.0)
        assert h.result(timeout=30.0) is not None

    def test_exception_accessor(self, ops):
        A, B = ops
        ex = FaultInjectingExecutor()
        boom = RuntimeError("kernel exploded")
        ex.push_raise(boom)
        with MultiplyService(executor=ex) as svc:
            h = svc.submit(A, B)
            assert h.exception(timeout=30.0) is boom
            with pytest.raises(RuntimeError, match="kernel exploded"):
                h.result(timeout=30.0)
            assert h.status == "error"

    def test_dtype_preserved_end_to_end(self, ops):
        A, B = ops
        with MultiplyService() as svc:
            h32 = svc.submit(A.astype(np.float32), B.astype(np.float32))
            h64 = svc.submit(A, B)
            assert h32.result(timeout=30.0).dtype == np.float32
            assert h64.result(timeout=30.0).dtype == np.float64


class TestAdmissionControl:
    def test_reject_policy_raises_typed_overload(self, ops):
        A, B = ops
        svc = MultiplyService(byte_budget=64, policy="reject")
        try:
            with pytest.raises(ServiceOverloadedError) as ei:
                svc.submit(A, B)
            assert ei.value.job_bytes > ei.value.byte_budget == 64
            assert svc.stats()["rejected"] == 1
            assert svc.stats()["submitted"] == 0
        finally:
            svc.shutdown()

    def test_reject_fires_only_past_the_budget(self, ops):
        A, B = ops
        cost = priced_bytes(A, B)
        ex = FaultInjectingExecutor()
        gate = ex.push_block()
        # Budget sized for one queued job of this spec, not two.
        svc = MultiplyService(byte_budget=int(1.5 * cost), policy="reject",
                              executor=ex)
        try:
            first = svc.submit(A, B)   # claimed by the frozen batch
            wait_for(lambda: first.status == "running")
            second = svc.submit(A, B)  # queued: fits alone
            with pytest.raises(ServiceOverloadedError):
                svc.submit(A, B)       # queued bytes + job > budget
            gate.set()
            assert np.array_equal(first.result(timeout=30.0),
                                  second.result(timeout=30.0))
        finally:
            gate.set()
            svc.shutdown()

    def test_serial_policy_degrades_in_caller(self, ops):
        A, B = ops
        svc = MultiplyService(byte_budget=64, policy="serial")
        try:
            h = svc.submit(A, B)
            # Already terminal: the caller executed it synchronously.
            assert h.status == "complete"
            assert np.array_equal(h.result(), multiply(A, B, engine="auto"))
            st = svc.stats()
            assert st["degraded_serial"] == 1
            assert st["queue_depth"] == 0
        finally:
            svc.shutdown()

    def test_queue_policy_blocks_until_the_queue_drains(self, ops):
        A, B = ops
        cost = priced_bytes(A, B)
        ex = FaultInjectingExecutor()
        gate = ex.push_block()
        svc = MultiplyService(byte_budget=int(1.5 * cost), policy="queue",
                              executor=ex)
        try:
            first = svc.submit(A, B)   # claimed by the frozen batch
            wait_for(lambda: first.status == "running")
            svc.submit(A, B)           # queued: budget now full
            entered = threading.Event()
            done = threading.Event()
            handle = []

            def blocked_submit():
                entered.set()
                handle.append(svc.submit(A, B))
                done.set()

            t = threading.Thread(target=blocked_submit, daemon=True)
            t.start()
            entered.wait(10.0)
            assert not done.wait(0.15), "submit should block while over budget"
            gate.set()
            assert done.wait(30.0), "submit should unblock once drained"
            assert handle[0].result(timeout=30.0) is not None
            t.join(10.0)
        finally:
            gate.set()
            svc.shutdown()

    def test_queue_policy_rejects_a_job_no_budget_could_admit(self, ops):
        A, B = ops
        svc = MultiplyService(byte_budget=64, policy="queue")
        try:
            with pytest.raises(ServiceOverloadedError):
                svc.submit(A, B)  # bigger than the whole budget: never fits
        finally:
            svc.shutdown()

    def test_policy_validates_at_construction(self):
        # Normalization runs before the scheduler thread starts, so a bad
        # policy never leaks a thread.
        with pytest.raises(ValueError, match="overload policy"):
            MultiplyService(policy="explode")


class TestShutdown:
    def test_drain_completes_queued_jobs(self, ops):
        A, B = ops
        ex = FaultInjectingExecutor()
        gate = ex.push_block()
        svc = MultiplyService(executor=ex)
        hs = [svc.submit(A, B) for _ in range(4)]
        gate.set()
        assert svc.shutdown(drain=True, timeout=30.0)
        assert all(h.status == "complete" for h in hs)
        assert svc.queue_depth == 0
        assert svc.pending_bytes == 0

    def test_no_drain_cancels_queued_jobs(self, ops):
        A, B = ops
        ex = FaultInjectingExecutor()
        gate = ex.push_block()
        svc = MultiplyService(executor=ex)
        running = svc.submit(A, B)
        # Wait for the scheduler to actually claim the first batch so the
        # later submissions are deterministically still queued.
        wait_for(lambda: running.status == "running")
        queued = [svc.submit(A, B) for _ in range(3)]
        gate.set()
        assert svc.shutdown(drain=False, timeout=30.0)
        assert running.status == "complete"
        for h in queued:
            assert h.status == "cancelled"
            with pytest.raises(JobCancelledError):
                h.result(timeout=1.0)

    def test_submit_after_shutdown_raises(self, ops):
        A, B = ops
        svc = MultiplyService()
        svc.shutdown()
        with pytest.raises(ServiceClosedError):
            svc.submit(A, B)

    def test_shutdown_is_idempotent(self, ops):
        svc = MultiplyService()
        assert svc.shutdown(timeout=30.0)
        assert svc.shutdown(timeout=30.0)

    def test_context_manager_drains(self, ops):
        A, B = ops
        with MultiplyService() as svc:
            h = svc.submit(A, B)
        assert h.status == "complete"
        assert svc.closed


class TestObservabilityPublication:
    def test_serve_metrics_live_in_the_shared_registry(self, ops):
        A, B = ops
        before = obs_metrics.registry.snapshot()
        assert "serve.submitted" in before["counters"]
        assert "serve.queue_depth" in before["gauges"]
        assert "serve.coalesce_ratio" in before["gauges"]
        assert "serve.job_latency_s" in before["histograms"]
        base = before["counters"]["serve.completed"]
        with MultiplyService() as svc:
            svc.submit(A, B).result(timeout=30.0)
        after = obs_metrics.registry.snapshot()
        assert after["counters"]["serve.completed"] == base + 1

    def test_queue_depth_gauge_tracks_live_services(self, ops):
        A, B = ops
        # A frozen test clock keeps the coalescing window open forever, so
        # both pinned jobs deterministically sit in the queue (still
        # pending) when the gauge is read.
        svc = MultiplyService(clock=ServiceTestClock(), batch_window_s=10.0)
        try:
            svc.submit(A, B, algorithm="strassen")
            svc.submit(A, B, algorithm="strassen")
            snap = obs_metrics.registry.snapshot()
            assert snap["gauges"]["serve.queue_depth"] == 2
            assert snap["gauges"]["serve.pending_bytes"] > 0
        finally:
            svc.shutdown()

    def test_per_job_report_attributed_by_id(self, ops):
        A, B = ops
        with MultiplyService() as svc:
            h = svc.submit(A, B)
            h.result(timeout=30.0)
            rep = h.report()
            assert rep is not None
            assert rep.shape == (64, 64, 64)
            assert h.batch_size >= 1


class TestTunableDefaults:
    def test_window_and_cap_default_from_tunables(self):
        from repro.core.spec import set_runtime_tunables

        svc = MultiplyService()
        try:
            set_runtime_tunables(serve_batch_window_us=7000,
                                 serve_max_batch=5)
            assert svc.batch_window_s == pytest.approx(0.007)
            assert svc.max_batch == 5
        finally:
            set_runtime_tunables()
            svc.shutdown()

    def test_explicit_knobs_beat_tunables(self):
        from repro.core.spec import set_runtime_tunables

        svc = MultiplyService(batch_window_s=0.5, max_batch=3)
        try:
            set_runtime_tunables(serve_batch_window_us=7000,
                                 serve_max_batch=99)
            assert svc.batch_window_s == 0.5
            assert svc.max_batch == 3
        finally:
            set_runtime_tunables()
            svc.shutdown()


class TestCoalescingAcceptance:
    """The ISSUE acceptance criterion, end to end."""

    def test_32_concurrent_same_plan_submissions_coalesce(self, rng):
        A = rng.standard_normal((64, 64))
        B = rng.standard_normal((64, 64))
        clock = ServiceTestClock()
        ex = FaultInjectingExecutor()
        svc = MultiplyService(batch_window_s=1.0, max_batch=8,
                              clock=clock, executor=ex)
        try:
            handles = []
            lock = threading.Lock()

            def submit_one():
                h = svc.submit(A, B, algorithm="strassen")
                with lock:
                    handles.append(h)

            threads = [threading.Thread(target=submit_one)
                       for _ in range(32)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            clock.run_until(lambda: all(h.done() for h in handles))

            # <= 8 batched runs, observable via the coalesce-ratio stat.
            st = svc.stats()
            assert st["completed"] == 32
            assert st["batches"] <= 8
            assert st["coalesce_ratio"] >= 4.0
            assert len(ex.calls) == st["batches"]
            # ... and via the registry gauge.
            snap = obs_metrics.registry.snapshot()
            assert snap["gauges"]["serve.coalesce_ratio"] > 1.0

            # Results bitwise-equal to serial multiply.
            ref = multiply(A, B)
            for h in handles:
                assert np.array_equal(h.result(timeout=30.0), ref)
        finally:
            svc.shutdown()

    def test_over_budget_submission_raises_instead_of_ooming(self, rng):
        A = rng.standard_normal((256, 256))
        B = rng.standard_normal((256, 256))
        svc = MultiplyService(byte_budget=1 * 2**20, policy="reject")
        try:
            with pytest.raises(ServiceOverloadedError):
                svc.submit(A, B, levels=1)
        finally:
            svc.shutdown()
