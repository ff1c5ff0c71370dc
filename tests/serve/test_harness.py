"""The concurrency harness itself: FIFO order, races, faults.

These tests drive the scheduler entirely through the injectable seam,
:class:`FaultInjectingExecutor` (run / raise / deadlock on command).  No
assertion in this module depends on wall-clock timing: tests wait on a
job's result or poll its status.

A default job runs auto's pick, which at these sizes is one BLAS call;
the ordering test pins ``strassen`` so its jobs share a plan.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.executor import multiply
from repro.serve import JobCancelledError, MultiplyService
from repro.serve.testing import FaultInjectingExecutor


@pytest.fixture
def ops(rng):
    A = rng.standard_normal((48, 48))
    B = rng.standard_normal((48, 48))
    return A, B


@pytest.fixture
def rig(ops):
    """A service with a programmable executor."""
    ex = FaultInjectingExecutor()
    svc = MultiplyService(executor=ex)
    yield svc, ex
    svc.shutdown(timeout=30.0)


def wait_running(handle, timeout_s: float = 10.0) -> None:
    """Poll until the scheduler has claimed ``handle``; a wall-clock
    ceiling bounds a hung test, it never gates a passing one."""
    deadline = time.monotonic() + timeout_s
    while handle.status == "pending":
        if time.monotonic() > deadline:
            raise TimeoutError(f"{handle.id} was never claimed")
        time.sleep(0.001)


class TestFirstInFirstOut:
    def test_same_plan_jobs_run_one_execution_each_in_order(self, rig, ops):
        svc, ex = rig
        A, B = ops
        # Freeze the scheduler inside job #1 so the rest queue up behind
        # it: same plan, all pending at once, and still one execution per
        # job, in submission order.
        gate = ex.push_block()
        handles = [svc.submit(A, B, algorithm="strassen") for _ in range(6)]
        gate.set()
        results = [h.result(timeout=30.0) for h in handles]
        assert ex.calls == [h.id for h in handles]
        st = svc.stats()
        assert st["batches"] == st["completed"] == 6
        ref = multiply(A, B, algorithm="strassen")
        assert all(np.array_equal(C, ref) for C in results)
        # Each job gets an array of its own, so no two results alias.
        assert all(C.flags.owndata for C in results)


class TestCancellationRaces:
    def test_pending_job_cancels_while_scheduler_is_mid_job(self, rig, ops):
        svc, ex = rig
        A, B = ops
        gate = ex.push_block()
        running = svc.submit(A, B)
        wait_running(running)
        pending = svc.submit(A, B)
        assert pending.cancel() is True
        assert pending.status == "cancelled"
        with pytest.raises(JobCancelledError):
            pending.result(timeout=1.0)
        gate.set()
        running.result(timeout=30.0)
        assert running.status == "complete"
        # The cancelled job never reached the executor.
        assert pending.id not in ex.calls

    def test_running_job_refuses_cancellation(self, rig, ops):
        svc, ex = rig
        A, B = ops
        gate = ex.push_block()
        h = svc.submit(A, B)
        wait_running(h)
        assert h.cancel() is False
        gate.set()
        assert np.array_equal(h.result(timeout=30.0),
                              multiply(A, B, engine="auto"))

    def test_double_cancel_reports_false_the_second_time(self, rig, ops):
        svc, ex = rig
        A, B = ops
        gate = ex.push_block()
        running = svc.submit(A, B)
        wait_running(running)
        pending = svc.submit(A, B)
        assert pending.cancel() is True
        assert pending.cancel() is False
        gate.set()

    def test_terminal_job_refuses_cancellation(self, rig, ops):
        svc, ex = rig
        A, B = ops
        h = svc.submit(A, B)
        h.result(timeout=30.0)
        assert h.cancel() is False
        assert h.status == "complete"


class TestErrorPropagation:
    def test_executor_exception_reaches_its_job_only(self, rig, ops):
        svc, ex = rig
        A, B = ops
        boom = ArithmeticError("singular universe")
        ex.push_raise(boom)
        h1 = svc.submit(A, B, algorithm="strassen")
        h2 = svc.submit(A, B, algorithm="strassen")
        assert h1.exception(timeout=30.0) is boom
        assert h1.status == "error"
        with pytest.raises(ArithmeticError, match="singular universe"):
            h1.result(timeout=1.0)
        assert np.array_equal(h2.result(timeout=30.0),
                              multiply(A, B, algorithm="strassen"))
        assert svc.stats()["errors"] == 1

    def test_error_job_does_not_poison_the_next_job(self, rig, ops):
        svc, ex = rig
        A, B = ops
        ex.push_raise(ValueError("transient"))
        bad = svc.submit(A, B)
        bad.exception(timeout=30.0)
        good = svc.submit(A, B)
        good.result(timeout=30.0)
        assert bad.status == "error"
        assert good.status == "complete"
        assert np.array_equal(good.result(timeout=30.0),
                              multiply(A, B, engine="auto"))


class TestDeadlockedExecutor:
    def test_shutdown_times_out_while_executor_hangs_then_recovers(
            self, rig, ops):
        svc, ex = rig
        A, B = ops
        gate = ex.push_block()
        h = svc.submit(A, B)
        wait_running(h)
        # The scheduler is deadlocked inside the executor: a bounded
        # shutdown reports failure instead of hanging the caller.
        assert svc.shutdown(drain=True, timeout=0.1) is False
        gate.set()
        assert svc.shutdown(drain=True, timeout=30.0) is True
        assert h.status == "complete"
