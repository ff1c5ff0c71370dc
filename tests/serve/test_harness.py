"""The concurrency harness itself: deterministic windows, races, faults.

These tests drive the scheduler entirely through the injectable seams —
:class:`ServiceTestClock` (manual time; a coalescing window only closes
when the test advances the clock) and :class:`FaultInjectingExecutor`
(delay / raise / deadlock on command).  No assertion in this module
depends on wall-clock timing.

A default job runs auto's pick, which at these sizes is one BLAS call
that never waits for a window; tests about coalescing pin
``strassen`` so their jobs share a plan.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.executor import multiply
from repro.serve import JobCancelledError, MultiplyService
from repro.serve.testing import FaultInjectingExecutor, ServiceTestClock


@pytest.fixture
def ops(rng):
    A = rng.standard_normal((48, 48))
    B = rng.standard_normal((48, 48))
    return A, B


@pytest.fixture
def rig(ops):
    """A service on a frozen clock with a programmable executor."""
    clock = ServiceTestClock()
    ex = FaultInjectingExecutor()
    svc = MultiplyService(batch_window_s=1.0, max_batch=32,
                          clock=clock, executor=ex)
    yield svc, clock, ex
    svc.shutdown(timeout=30.0)


class TestCoalescingWindow:
    def test_window_holds_until_the_clock_advances(self, rig, ops):
        svc, clock, ex = rig
        A, B = ops
        handles = [svc.submit(A, B, algorithm="strassen") for _ in range(5)]
        # Simulated time is frozen: the window cannot expire on its own,
        # so every same-plan job lands in one batch once time moves.
        clock.run_until(lambda: all(h.done() for h in handles))
        assert ex.calls == [[h.id for h in handles]]
        assert all(h.batch_size == 5 for h in handles)

    def test_max_batch_caps_a_burst(self, ops):
        clock = ServiceTestClock()
        ex = FaultInjectingExecutor()
        svc = MultiplyService(batch_window_s=1.0, max_batch=2,
                              clock=clock, executor=ex)
        A, B = ops
        try:
            gate = ex.push_block()  # freeze batch #1 so all 5 queue first
            handles = [svc.submit(A, B, algorithm="strassen")
                       for _ in range(5)]
            gate.set()
            clock.run_until(lambda: all(h.done() for h in handles))
            sizes = sorted(len(call) for call in ex.calls)
            assert sum(sizes) == 5
            assert max(sizes) <= 2
        finally:
            svc.shutdown(timeout=30.0)

    def test_different_plans_never_share_a_batch(self, rig, rng):
        svc, clock, ex = rig
        A64 = rng.standard_normal((48, 48))
        B64 = rng.standard_normal((48, 48))
        h_f64 = [svc.submit(A64, B64, algorithm="strassen") for _ in range(3)]
        h_f32 = [svc.submit(A64.astype(np.float32), B64.astype(np.float32),
                            algorithm="strassen")
                 for _ in range(3)]
        h_lvl2 = [svc.submit(A64, B64, levels=2) for _ in range(2)]
        everyone = h_f64 + h_f32 + h_lvl2
        clock.run_until(lambda: all(h.done() for h in everyone))
        groups = {frozenset(call) for call in ex.calls}
        assert frozenset(h.id for h in h_f64) in groups
        assert frozenset(h.id for h in h_f32) in groups
        assert frozenset(h.id for h in h_lvl2) in groups
        # dtype preserved through (and across) the batch path
        for h in h_f32:
            assert h.result(timeout=30.0).dtype == np.float32
        for h in h_f64 + h_lvl2:
            assert h.result(timeout=30.0).dtype == np.float64

    def test_execution_knobs_split_the_coalescing_key(self, rig, ops):
        svc, clock, ex = rig
        A, B = ops
        # The lowering is part of the plan key, which is the coalescing
        # key: a staged and a fused job never share a batch.
        h1 = svc.submit(A, B, algorithm="strassen", fusion="staged")
        h2 = svc.submit(A, B, algorithm="strassen", fusion="fused")
        clock.run_until(lambda: h1.done() and h2.done())
        assert {frozenset(c) for c in ex.calls} == {
            frozenset([h1.id]), frozenset([h2.id])}


class TestCancellationRaces:
    def test_pending_job_cancels_while_scheduler_is_mid_batch(self, rig, ops):
        svc, clock, ex = rig
        A, B = ops
        gate = ex.push_block()
        running = svc.submit(A, B)
        clock.run_until(lambda: running.status == "running")
        pending = svc.submit(A, B)
        assert pending.cancel() is True
        assert pending.status == "cancelled"
        with pytest.raises(JobCancelledError):
            pending.result(timeout=1.0)
        gate.set()
        clock.run_until(lambda: running.done())
        assert running.status == "complete"
        # The cancelled job never reached the executor.
        assert all(pending.id not in call for call in ex.calls)

    def test_running_job_refuses_cancellation(self, rig, ops):
        svc, clock, ex = rig
        A, B = ops
        gate = ex.push_block()
        h = svc.submit(A, B)
        clock.run_until(lambda: h.status == "running")
        assert h.cancel() is False
        gate.set()
        clock.run_until(lambda: h.done())
        assert np.array_equal(h.result(timeout=30.0),
                              multiply(A, B, engine="auto"))

    def test_double_cancel_reports_false_the_second_time(self, rig, ops):
        svc, clock, ex = rig
        A, B = ops
        gate = ex.push_block()
        running = svc.submit(A, B)
        clock.run_until(lambda: running.status == "running")
        pending = svc.submit(A, B)
        assert pending.cancel() is True
        assert pending.cancel() is False
        gate.set()

    def test_terminal_job_refuses_cancellation(self, rig, ops):
        svc, clock, ex = rig
        A, B = ops
        h = svc.submit(A, B)
        clock.run_until(lambda: h.done())
        assert h.cancel() is False
        assert h.status == "complete"


class TestErrorPropagation:
    def test_executor_exception_reaches_every_job_in_the_batch(self, rig, ops):
        svc, clock, ex = rig
        A, B = ops
        boom = ArithmeticError("singular universe")
        ex.push_raise(boom)
        h1 = svc.submit(A, B, algorithm="strassen")
        h2 = svc.submit(A, B, algorithm="strassen")
        clock.run_until(lambda: h1.done() and h2.done())
        assert h1.status == h2.status == "error"
        for h in (h1, h2):
            with pytest.raises(ArithmeticError, match="singular universe"):
                h.result(timeout=1.0)
            assert h.exception(timeout=1.0) is boom
        assert svc.stats()["errors"] == 2

    def test_error_batch_does_not_poison_the_next_batch(self, rig, ops):
        svc, clock, ex = rig
        A, B = ops
        ex.push_raise(ValueError("transient"))
        bad = svc.submit(A, B)
        clock.run_until(lambda: bad.done())
        good = svc.submit(A, B)
        clock.run_until(lambda: good.done())
        assert bad.status == "error"
        assert good.status == "complete"
        assert np.array_equal(good.result(timeout=30.0),
                              multiply(A, B, engine="auto"))


class TestDeadlockedExecutor:
    def test_shutdown_times_out_while_executor_hangs_then_recovers(
            self, ops):
        clock = ServiceTestClock()
        ex = FaultInjectingExecutor()
        svc = MultiplyService(batch_window_s=1.0, clock=clock, executor=ex)
        A, B = ops
        gate = ex.push_block()
        h = svc.submit(A, B)
        clock.run_until(lambda: h.status == "running")
        # The scheduler is deadlocked inside the executor: a bounded
        # shutdown reports failure instead of hanging the caller.
        assert svc.shutdown(drain=True, timeout=0.1) is False
        gate.set()
        assert svc.shutdown(drain=True, timeout=30.0) is True
        assert h.status == "complete"
