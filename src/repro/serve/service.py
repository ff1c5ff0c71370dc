"""Async multiply service: a submission front over the compiled-plan runtime.

Every caller so far blocks in :func:`repro.multiply` /
:func:`repro.multiply_batched`.  :class:`MultiplyService` turns the fast
multiply library into a service that survives load: ``submit(A, B,
**spec)`` validates the request up front (spec normalization, route
resolution and plan compilation happen in the caller, so bad requests
fail synchronously), prices it against a byte budget, and returns a
:class:`JobHandle` whose status moves ``pending -> running -> complete |
error | cancelled``.

**The default job is auto's pick.**  A job that names no schedule (no
``algorithm``, ``levels`` or ``variant``) resolves through the same
memoized route as ``multiply(A, B, engine="auto")``
(:func:`repro.core.executor._resolve`), so it returns bitwise what that
call returns.  Wherever FMM does not pay off (the paper's §4.4
poly-algorithm), that route is classical, and the scheduler runs the job
as its own BLAS call (:func:`repro.core.runtime.run_blas`): no stacking,
no plan, no batch window, since one ``np.matmul`` has nothing to
amortize.  Before this default, every job ran ``strassen@1``; a job that
sets any of the three spec arguments still pins a schedule, with
``strassen``, 1 and ``"abc"`` for the ones it leaves out.

A single scheduler thread drains the queue and **coalesces same-plan
FMM requests**: the compiled-plan cache key (:mod:`repro.core.compile`)
is the coalescing key, and matching jobs that arrive within the batch
window are stacked into one batched execution
through :func:`repro.core.runtime.execute_plan` — the same amortization
:func:`repro.multiply_batched` gives a caller who already holds a stack,
earned here across callers who do not know about each other.  Batched
execution is bitwise-equal to per-request 2-D execution under the same
plan (the batch folds into the task slabs; the per-element accumulation
order is unchanged), so coalescing is invisible to results, and every
job gets an array of its own.  The window and batch cap default from
the runtime-tunable constants
(:func:`repro.core.spec.effective_serve_batch_window_us` /
:func:`effective_serve_max_batch`), like ``DEFAULT_FUSED_GROUP`` before
them.

**Admission control** prices each job off the arena's byte accounting:
:func:`repro.model.perfmodel.predict_workspace_bytes` (the model twin of
the runtime's arena specs) plus the operand/result bytes, summed over the
queue, against ``byte_budget``.  A BLAS job is charged its operand and
result bytes only.  Jobs whose plan resolved to the out-of-core
``tiled`` lowering are charged their bounded RAM window only — slabs
spill to mmap, operands stream through the window.  Over budget, the
``policy`` knob decides: ``"queue"`` blocks the submitter until the
queue drains, ``"reject"`` raises :class:`ServiceOverloadedError`,
``"serial"`` degrades the call to a synchronous in-caller multiply that
never enters the queue.

Job state, queue depth, coalesce ratio and per-job latency publish into
the PR-8 observability layer — the :mod:`repro.obs.metrics` registry and
:mod:`repro.obs.reports` history — not a parallel record.  Per-job
ExecutionReports in particular route through
``repro.obs.reports.record_job`` keyed by job id, because
``runtime.last_report()`` is thread-local and therefore racy for anyone
but the executing thread (see its docstring).

The scheduler's clock and batch executor are injectable constructor
seams (``clock=``, ``executor=``): :mod:`repro.serve.testing` provides a
manual :class:`~repro.serve.testing.ServiceTestClock` and a
fault-injecting executor so coalescing windows, cancellation races and
error propagation are tested without wall-clock sleeps.  A BLAS job
reaches the executor too, as a batch of one.
"""

from __future__ import annotations

import itertools
import threading
import time
import weakref
from collections import deque

import numpy as np

from repro.core import compile as plancache
from repro.core import runtime
from repro.core.executor import _compute_dtype, _contig_operand, _resolve
from repro.core.spec import (
    effective_serve_batch_window_us,
    effective_serve_max_batch,
    normalize_fusion,
    normalize_overload_policy,
)
from repro.model.perfmodel import predict_workspace_bytes
from repro.obs import metrics as obs_metrics
from repro.obs import reports as obs_reports

__all__ = [
    "JOB_STATUSES",
    "JobCancelledError",
    "JobHandle",
    "MultiplyService",
    "MonotonicClock",
    "ServiceClosedError",
    "ServiceError",
    "ServiceOverloadedError",
    "execute_batch",
]

#: The job lifecycle. ``pending`` jobs sit in the queue (cancellable);
#: ``running`` jobs are owned by the scheduler; the other three are
#: terminal.
JOB_STATUSES = ("pending", "running", "complete", "error", "cancelled")


class ServiceError(RuntimeError):
    """Base class for serving-layer errors."""


class ServiceOverloadedError(ServiceError):
    """A submission would push queued work past the service byte budget.

    Raised by ``policy="reject"`` (and by ``policy="queue"`` when the job
    *alone* exceeds the budget, where waiting could never help).  Carries
    the accounting that triggered it.
    """

    def __init__(self, message: str, *, job_bytes: int = 0,
                 pending_bytes: int = 0, byte_budget: int = 0) -> None:
        super().__init__(message)
        self.job_bytes = int(job_bytes)
        self.pending_bytes = int(pending_bytes)
        self.byte_budget = int(byte_budget)


class ServiceClosedError(ServiceError):
    """``submit`` after ``shutdown`` began."""


class JobCancelledError(ServiceError):
    """``result()`` on a job that was cancelled before it ran."""


class MonotonicClock:
    """The default scheduler clock: real monotonic time + condition wait.

    The service never calls ``time`` APIs directly — everything temporal
    goes through this two-method seam so tests can substitute
    :class:`repro.serve.testing.ServiceTestClock` and drive windows
    manually.
    """

    def now(self) -> float:
        return time.monotonic()

    def wait(self, cond: threading.Condition, timeout: float | None) -> bool:
        return cond.wait(timeout)


# ---------------------------------------------------------------------- #
# Service metrics (module-level: the registry is process-wide)
# ---------------------------------------------------------------------- #
_m_submitted = obs_metrics.counter(
    "serve.submitted", "jobs accepted into the service queue")
_m_completed = obs_metrics.counter(
    "serve.completed", "jobs finished with a result")
_m_errors = obs_metrics.counter(
    "serve.errors", "jobs finished with an exception")
_m_cancelled = obs_metrics.counter(
    "serve.cancelled", "jobs cancelled before execution")
_m_rejected = obs_metrics.counter(
    "serve.rejected", "submissions rejected by the byte-budget policy")
_m_degraded = obs_metrics.counter(
    "serve.degraded_serial", "over-budget submissions degraded to serial")
_m_batches = obs_metrics.counter(
    "serve.batches", "coalesced batch executions")
_h_batch_size = obs_metrics.histogram(
    "serve.batch_size", "jobs per coalesced batch")
_h_job_latency = obs_metrics.histogram(
    "serve.job_latency_s", "submit-to-complete latency per job")

#: Live services, for the aggregate queue gauges.
_services: "weakref.WeakSet[MultiplyService]" = weakref.WeakSet()


def _total_queue_depth() -> int:
    return sum(s.queue_depth for s in list(_services))


def _total_pending_bytes() -> int:
    return sum(s.pending_bytes for s in list(_services))


def _coalesce_ratio() -> float:
    """Jobs executed per batch execution, over the process lifetime."""
    done = _m_completed.value() + _m_errors.value()
    batches = _m_batches.value()
    return (done / batches) if batches else 0.0


obs_metrics.gauge("serve.queue_depth",
                  "pending jobs across live services", _total_queue_depth)
obs_metrics.gauge("serve.pending_bytes",
                  "priced bytes queued across live services",
                  _total_pending_bytes)
obs_metrics.gauge("serve.coalesce_ratio",
                  "completed jobs per batch execution", _coalesce_ratio)

_job_ids = itertools.count(1)


class _Latch:
    """A one-shot completion flag with :class:`threading.Event`'s
    ``set``/``is_set``/``wait``, for one job each.

    An Event builds a Condition per job and a waiter lock per ``wait``;
    this is one lock, held from creation until :meth:`set`, so a job
    costs less to submit, finish and wait on.  ``set`` runs once per job:
    the scheduler, a cancel or a non-draining shutdown finishes it.
    """

    __slots__ = ("_lock", "_set")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._lock.acquire()
        self._set = False

    def set(self) -> None:
        self._lock.release()
        self._set = True

    def is_set(self) -> bool:
        return self._set

    def wait(self, timeout: float | None = None) -> bool:
        if self._set:
            return True
        if not self._lock.acquire(
                timeout=-1 if timeout is None else max(timeout, 0.0)):
            return False
        self._lock.release()  # let every other waiter through too
        return True


class JobHandle:
    """A submitted multiply: queryable status, blocking result, report.

    Created by :meth:`MultiplyService.submit`; never constructed
    directly.  Thread-safe: any thread may poll :attr:`status`, block in
    :meth:`result`, or :meth:`cancel`.
    """

    __slots__ = (
        "id", "_service", "_key", "_cplan", "_blas", "_A", "_B", "_shape",
        "_dtype", "_cost_bytes", "_submitted_at",
        "_status", "_result", "_exc", "_batch_size", "_done",
        "__weakref__",
    )

    def __init__(self, service, key, cplan, blas, A, B, shape, dtype,
                 cost_bytes, submitted_at) -> None:
        self.id = f"job-{next(_job_ids)}"
        self._service = service
        self._key = key            # coalescing key; None for a BLAS job
        self._cplan = cplan        # the pinned or picked FMM plan, else None
        self._blas = blas          # a BLAS job's constant report fields
        self._A = A
        self._B = B
        self._shape = shape
        self._dtype = dtype
        self._cost_bytes = cost_bytes
        self._submitted_at = submitted_at
        self._status = "pending"
        self._result = None
        self._exc: BaseException | None = None
        self._batch_size = 0
        self._done = _Latch()

    @property
    def status(self) -> str:
        """One of :data:`JOB_STATUSES`."""
        return self._status

    @property
    def shape(self) -> tuple[int, int, int]:
        return self._shape

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    @property
    def batch_size(self) -> int:
        """Jobs in the coalesced batch this job executed in (0 before
        execution, 1 when it ran alone)."""
        return self._batch_size

    def done(self) -> bool:
        return self._done.is_set()

    def cancel(self) -> bool:
        """Withdraw the job if it is still pending.

        True when the job was removed from the queue before the
        scheduler claimed it; False once it is running or terminal
        (results are never discarded retroactively).
        """
        return self._service._cancel(self)

    def result(self, timeout: float | None = None) -> np.ndarray:
        """Block until terminal and return ``C = A @ B``.

        Raises ``TimeoutError`` if not terminal within ``timeout``
        seconds, :class:`JobCancelledError` if the job was cancelled, or
        re-raises the execution's exception if it errored.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"{self.id} not done within {timeout!r}s (status {self._status})"
            )
        if self._status == "complete":
            return self._result
        if self._status == "cancelled":
            raise JobCancelledError(f"{self.id} was cancelled")
        raise self._exc

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """The execution's exception (None on success); blocks like
        :meth:`result`."""
        if not self._done.wait(timeout):
            raise TimeoutError(f"{self.id} not done within {timeout!r}s")
        return self._exc

    def report(self):
        """This job's :class:`~repro.core.runtime.ExecutionReport`.

        Looked up from the bounded report history keyed by job id
        (:func:`repro.obs.reports.report_for`) — *not* from the racy
        thread-local ``runtime.last_report()``.  None until the job
        completes (or after eviction from the bounded history).  Jobs
        coalesced into one batch share one report.
        """
        return obs_reports.report_for(self.id)

    def __repr__(self) -> str:
        m, k, n = self.shape
        return (f"JobHandle({self.id}, {m}x{k}x{n}, {self.dtype.name}, "
                f"{self._status})")


def execute_batch(jobs: list[JobHandle]):
    """The default batch executor: run one claimed batch; return
    ``(results, report)``.

    A BLAS job (auto resolved it classical) is one
    :func:`repro.core.runtime.run_blas` call into a fresh result; the
    scheduler hands those over one per call, so the report is that
    job's.
    For an FMM plan a single job executes 2-D; several stack into a
    ``(batch, m, k)`` operand and run the batched lowering —
    bitwise-equal per element either way — and each job gets a copy of
    its slice, so no result keeps the stack alive.  The report is read
    via ``last_report()`` *in this thread* immediately after the
    execution, which is the one place that thread-local is race-free;
    the service then attributes it to each job id in the history.
    """
    lead = jobs[0]
    cplan = lead._cplan
    if cplan is None:
        results = [runtime.run_blas(j._A, j._B, None, j._blas) for j in jobs]
        return results, runtime.last_report()
    m, k, n = cplan.shape
    if len(jobs) == 1:
        C = np.zeros((m, n), dtype=cplan.dtype)
        runtime.execute_plan(cplan, lead._A, lead._B, C)
        results = [C]
    else:
        A3 = np.stack([j._A for j in jobs])
        B3 = np.stack([j._B for j in jobs])
        C3 = np.zeros((len(jobs), m, n), dtype=cplan.dtype)
        runtime.execute_plan(cplan, A3, B3, C3)
        results = [C.copy() for C in C3]
    return results, runtime.last_report()


class MultiplyService:
    """Asynchronous multiply submission front with request coalescing.

    Parameters
    ----------
    batch_window_s:
        Seconds the scheduler holds a batch open for same-plan arrivals
        after claiming its first job.  Default: the runtime-tunable
        ``serve_batch_window_us`` (resolved per batch, so a tunable
        update reaches a running service).
    max_batch:
        Most jobs coalesced into one execution.  Default: the
        runtime-tunable ``serve_max_batch``.
    byte_budget:
        Admission budget in bytes: the sum over queued jobs of predicted
        workspace + operand/result bytes may not exceed it.  ``None``
        (default) disables admission control.
    policy:
        Over-budget behavior: ``"queue"`` | ``"reject"`` | ``"serial"``
        (see :data:`repro.core.spec.OVERLOAD_POLICIES`).  Default
        ``"reject"``.
    clock, executor:
        Test seams (see module docstring).  ``executor(jobs)`` must
        return ``(results, report_or_None)`` aligned with ``jobs``.

    Use as a context manager for a drained shutdown::

        with MultiplyService() as svc:
            h = svc.submit(A, B, levels=2)
            C = h.result(timeout=30)
    """

    def __init__(
        self,
        *,
        batch_window_s: float | None = None,
        max_batch: int | None = None,
        byte_budget: int | None = None,
        policy: str | None = None,
        clock=None,
        executor=None,
    ) -> None:
        self._batch_window_s = (
            None if batch_window_s is None else float(batch_window_s))
        if self._batch_window_s is not None and self._batch_window_s < 0:
            raise ValueError("batch_window_s must be >= 0")
        self._max_batch = None if max_batch is None else int(max_batch)
        if self._max_batch is not None and self._max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._byte_budget = None if byte_budget is None else int(byte_budget)
        if self._byte_budget is not None and self._byte_budget < 0:
            raise ValueError("byte_budget must be >= 0")
        self._policy = normalize_overload_policy(policy)
        self._clock = clock if clock is not None else MonotonicClock()
        self._executor = executor if executor is not None else execute_batch

        self._cond = threading.Condition()
        self._queue: deque[JobHandle] = deque()
        # Queued jobs per coalescing key, so a batch window checks its
        # fill without scanning the queue on every wake.
        self._key_counts: dict = {}
        self._pending_bytes = 0
        self._closed = False
        self._draining = True
        # Per-instance counts (the registry counters are process-wide).
        self._counts = {
            "submitted": 0, "completed": 0, "errors": 0, "cancelled": 0,
            "rejected": 0, "degraded_serial": 0, "batches": 0,
        }
        self._thread = threading.Thread(
            target=self._loop, name="repro-serve-scheduler", daemon=True)
        self._thread.start()
        _services.add(self)

    # ------------------------------------------------------------------ #
    # Tunable-backed knobs (resolved per read so live overrides apply)
    # ------------------------------------------------------------------ #
    @property
    def batch_window_s(self) -> float:
        if self._batch_window_s is not None:
            return self._batch_window_s
        return effective_serve_batch_window_us() / 1e6

    @property
    def max_batch(self) -> int:
        if self._max_batch is not None:
            return self._max_batch
        return effective_serve_max_batch()

    @property
    def byte_budget(self) -> int | None:
        return self._byte_budget

    @property
    def policy(self) -> str:
        return self._policy

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    @property
    def pending_bytes(self) -> int:
        with self._cond:
            return self._pending_bytes

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> dict:
        """Per-instance lifecycle counts plus queue state and the
        coalesce ratio (jobs executed per batch execution)."""
        with self._cond:
            out = dict(self._counts)
            out["queue_depth"] = len(self._queue)
            out["pending_bytes"] = self._pending_bytes
        done = out["completed"] + out["errors"]
        out["coalesce_ratio"] = done / out["batches"] if out["batches"] else 0.0
        return out

    # ------------------------------------------------------------------ #
    # Submission + admission control
    # ------------------------------------------------------------------ #
    def _price(self, cplan, dt, m, k, n) -> int:
        """Bytes one queued job is charged for: the model's predicted
        peak workspace for its plan (the arena's byte-accounting twin)
        plus its operand and result slabs.

        A BLAS job (``cplan`` None) has no workspace: ``np.matmul``
        allocates only the result, so it is charged the operand and
        result bytes.  A plan that resolved to the ``tiled`` lowering is
        charged its bounded RAM window only (``predict_workspace_bytes``
        prices tiled as
        :func:`repro.model.perfmodel.predict_tile_window_bytes` and the
        operand term is dropped): its slab-scale temporaries spill to
        mmap and its operands stream through the window, so charging the
        full slabs would starve the queue of exactly the jobs the
        out-of-core path exists to admit.
        """
        operands = (m * k + k * n + m * n) * dt.itemsize
        if cplan is None:
            return operands
        workspace = predict_workspace_bytes(
            m, k, n, cplan.ml, fusion=cplan.fusion, dtype=dt
        )
        if cplan.fusion == "tiled":
            return workspace
        return workspace + operands

    def submit(
        self,
        A,
        B,
        *,
        algorithm=None,
        levels: int | None = None,
        variant: str | None = None,
        dtype=None,
        fusion: str = "auto",
    ) -> JobHandle:
        """Queue ``C = A @ B`` and return its :class:`JobHandle`.

        A job that sets none of ``algorithm``, ``levels`` and ``variant``
        gets ``engine="auto"``'s pick: it resolves through the same
        memoized route as ``multiply(A, B, engine="auto", dtype=dtype,
        fusion=fusion)`` and returns bitwise what that call returns.  A
        classical pick runs as its own BLAS call, never stacked and never
        held for a batch window.  Setting any of the
        three pins the schedule, with ``"strassen"``, 1 and ``"abc"`` for
        the ones left unset, so ``submit(A, B, levels=2)`` is
        ``strassen@2``; the accepted spec is the direct-engine multiply
        surface (schedule strings and hybrid stacks included).  Before
        this default, a bare ``submit(A, B)`` ran ``strassen@1``.

        Validation is synchronous: shape/spec errors raise here in the
        caller, never inside the scheduler.  Complex operands raise
        ``TypeError`` here, like in :func:`repro.multiply`.
        """
        A = np.asarray(A)
        B = np.asarray(B)
        if A.ndim != 2 or B.ndim != 2:
            raise ValueError(
                f"submit takes one 2-D multiply per job, got {A.shape} x "
                f"{B.shape}; a stack you already hold batches faster "
                "through multiply_batched()"
            )
        if A.shape[1] != B.shape[0]:
            raise ValueError(f"incompatible operand shapes {A.shape} x {B.shape}")
        fusion = normalize_fusion(fusion)
        m, k, n = A.shape[0], A.shape[1], B.shape[1]
        cplan = blas = None
        if algorithm is None and levels is None and variant is None:
            A, B, route = _resolve(False, A, B, None, None, None, None,
                                   "auto", dtype, "readonly", fusion)
            dt = route.dt
            if route.depth:
                blas = route.report
            else:
                algorithm, levels, variant, _ = route.config
        else:
            dt = _compute_dtype(A, B, dtype=dtype)
            algorithm = "strassen" if algorithm is None else algorithm
            levels = 1 if levels is None else levels
            variant = "abc" if variant is None else variant
        if blas is None:
            cplan = plancache.compile(
                (m, k, n), algorithm, levels, variant, dtype=dt, fusion=fusion
            )
        A = _contig_operand(A, dt, "A")
        B = _contig_operand(B, dt, "B")
        # The coalescing key of an FMM job is the compiled plan's cache
        # key (shape, schedule, variant, dtype, resolved fusion).  A BLAS
        # job has none: it always runs alone.
        key = None if cplan is None else cplan.key
        cost = self._price(cplan, dt, m, k, n)
        job = JobHandle(self, key, cplan, blas, A, B, (m, k, n), dt, cost,
                        self._clock.now())

        degraded = False
        with self._cond:
            if self._closed:
                raise ServiceClosedError("service is shut down")
            budget = self._byte_budget
            if budget is not None and self._pending_bytes + cost > budget:
                if self._policy == "reject" or (
                    self._policy == "queue" and cost > budget
                ):
                    self._counts["rejected"] += 1
                    _m_rejected.inc()
                    raise ServiceOverloadedError(
                        f"job needs {cost} priced bytes; queue holds "
                        f"{self._pending_bytes} of a {budget}-byte budget",
                        job_bytes=cost,
                        pending_bytes=self._pending_bytes,
                        byte_budget=budget,
                    )
                if self._policy == "queue":
                    while (not self._closed
                           and self._pending_bytes + cost > budget):
                        self._clock.wait(self._cond, None)
                    if self._closed:
                        raise ServiceClosedError("service is shut down")
                elif self._policy == "serial":
                    self._counts["degraded_serial"] += 1
                    self._counts["submitted"] += 1
                    degraded = True
            if not degraded:
                self._counts["submitted"] += 1
                self._queue.append(job)
                if key is not None:
                    self._key_counts[key] = self._key_counts.get(key, 0) + 1
                self._pending_bytes += cost
                self._cond.notify_all()
        _m_submitted.inc()
        if degraded:
            _m_degraded.inc()
            return self._run_serial(job)
        return job

    def _run_serial(self, job: JobHandle) -> JobHandle:
        """Degraded path: execute in the submitting thread, off-queue.

        Runs without holding the service lock beyond status flips, so a
        degraded caller never stalls the scheduler.
        """
        job._status = "running"
        try:
            results, report = execute_batch([job])
        except BaseException as exc:  # noqa: BLE001 - delivered via result()
            self._finish_error([job], exc)
        else:
            self._finish_complete([job], results, report)
        return job

    # ------------------------------------------------------------------ #
    # Cancellation
    # ------------------------------------------------------------------ #
    def _cancel(self, job: JobHandle) -> bool:
        with self._cond:
            if job._status != "pending":
                return False
            try:
                self._queue.remove(job)
            except ValueError:
                return False
            self._uncount_locked(job)
            job._status = "cancelled"
            self._pending_bytes -= job._cost_bytes
            self._counts["cancelled"] += 1
            self._cond.notify_all()
        job._done.set()
        _m_cancelled.inc()
        return True

    # ------------------------------------------------------------------ #
    # The scheduler
    # ------------------------------------------------------------------ #
    def _loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._clock.wait(self._cond, None)
                if not self._queue:
                    return  # closed and drained (or queue was cleared)
                batch = self._collect_batch_locked()
            if batch:
                self._run_batch(batch)

    def _uncount_locked(self, job: JobHandle) -> None:
        """Drop a job that leaves the queue from its key's count."""
        if job._key is not None:
            left = self._key_counts[job._key] - 1
            if left:
                self._key_counts[job._key] = left
            else:
                del self._key_counts[job._key]

    def _collect_batch_locked(self) -> list[JobHandle]:
        """Claim the next batch (called with the lock held).

        A BLAS job at the head is claimed alone and at once: one
        ``np.matmul`` has nothing to share, so it never waits for
        company.  Otherwise the head's key selects the batch; the window
        holds it open for more same-key arrivals until ``max_batch``
        jobs are queued under it, the deadline passed, or shutdown
        began.  Pending jobs stay in the queue (still cancellable) until
        the batch closes, and then one pass splits the queue into the
        batch and the rest.
        """
        key = self._queue[0]._key
        if key is None:
            batch = [self._queue.popleft()]
        else:
            max_batch = self.max_batch
            deadline = self._clock.now() + self.batch_window_s
            while (0 < self._key_counts.get(key, 0) < max_batch
                   and not self._closed):
                remaining = deadline - self._clock.now()
                if remaining <= 0:
                    break
                self._clock.wait(self._cond, remaining)
            batch, rest = [], deque()
            for job in self._queue:
                if job._key == key and len(batch) < max_batch:
                    batch.append(job)
                else:
                    rest.append(job)
            self._queue = rest
        for job in batch:
            self._uncount_locked(job)
            self._pending_bytes -= job._cost_bytes
            job._status = "running"
        self._cond.notify_all()  # queue-policy submitters may fit now
        return batch

    def _run_batch(self, jobs: list[JobHandle]) -> None:
        try:
            results, report = self._executor(jobs)
        except BaseException as exc:  # noqa: BLE001 - delivered via result()
            self._finish_error(jobs, exc)
        else:
            self._finish_complete(jobs, results, report)

    def _finish_complete(self, jobs, results, report) -> None:
        now = self._clock.now()
        if report is not None:
            for job in jobs:
                obs_reports.record_job(job.id, report)
        with self._cond:
            for job, C in zip(jobs, results):
                job._result = C
                job._batch_size = len(jobs)
                job._status = "complete"
            self._counts["completed"] += len(jobs)
            self._counts["batches"] += 1
        for job in jobs:
            job._done.set()
            _m_completed.inc()
            _h_job_latency.observe(max(0.0, now - job._submitted_at))
        _m_batches.inc()
        _h_batch_size.observe(len(jobs))

    def _finish_error(self, jobs, exc) -> None:
        with self._cond:
            for job in jobs:
                job._exc = exc
                job._batch_size = len(jobs)
                job._status = "error"
            self._counts["errors"] += len(jobs)
            self._counts["batches"] += 1
        for job in jobs:
            job._done.set()
            _m_errors.inc()
        _m_batches.inc()
        _h_batch_size.observe(len(jobs))

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #
    def shutdown(self, drain: bool = True, timeout: float | None = None) -> bool:
        """Stop accepting submissions and end the scheduler.

        ``drain=True`` executes everything already queued first;
        ``drain=False`` cancels the queue.  Returns True when the
        scheduler thread exited within ``timeout`` (None = wait
        forever).  Idempotent.
        """
        with self._cond:
            self._closed = True
            self._draining = drain
            if not drain:
                cancelled = list(self._queue)
                self._queue.clear()
                self._key_counts.clear()
                self._pending_bytes = 0
                for job in cancelled:
                    job._status = "cancelled"
                self._counts["cancelled"] += len(cancelled)
            else:
                cancelled = []
            self._cond.notify_all()
        for job in cancelled:
            job._done.set()
            _m_cancelled.inc()
        self._thread.join(timeout)
        return not self._thread.is_alive()

    def __enter__(self) -> "MultiplyService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (f"MultiplyService({state}, queue={self.queue_depth}, "
                f"policy={self._policy!r}, budget={self._byte_budget})")
