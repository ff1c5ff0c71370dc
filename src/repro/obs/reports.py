"""Bounded ExecutionReport history with per-plan aggregation.

``runtime.last_report()`` answers "what did the most recent call do";
this module answers the serving questions — "what is the p95 for this
shape", "which worker mode actually handled the traffic", "how high did
the workspace peak go" — by keeping every published
:class:`~repro.core.runtime.ExecutionReport` in a bounded ring and
aggregating per plan key.

The runtime publishes into the global :data:`history` from
``_publish_report``; nothing here imports the core, so the dependency
stays one-way.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, field

from repro.obs.metrics import percentile

__all__ = [
    "DEFAULT_CAPACITY",
    "PlanStats",
    "ReportHistory",
    "aggregate",
    "clear",
    "history",
    "record",
    "record_job",
    "recent",
    "report_for",
    "stats_for",
]

#: Default number of reports retained (oldest evicted first).
DEFAULT_CAPACITY = 1024


@dataclass(frozen=True)
class PlanStats:
    """Aggregate over every retained report sharing one plan key."""

    key: str
    count: int
    p50_s: float
    p95_s: float
    mean_s: float
    best_s: float
    peak_bytes_hw: int          # high-water across the window
    total_batch: int
    total_io_bytes: int = 0     # tiled-lowering spill traffic (logical)
    total_tiles: int = 0
    core_paths: dict = field(default_factory=dict)


def _plan_key(report) -> str:
    m, k, n = report.shape
    shape = f"{m}x{k}x{n}"
    if report.batch > 1:
        shape += f"[b{report.batch}]"
    sched = report.schedule or "?"
    return f"{shape} {report.dtype} {sched}/{report.variant}"


class ReportHistory:
    """A thread-safe bounded ring of ExecutionReports.

    Besides the ring, the history keeps a bounded job-id index
    (:meth:`record_job` / :meth:`report_for`): the serving layer
    (:mod:`repro.serve`) attributes each job's ExecutionReport here,
    keyed by job id, because ``runtime.last_report()`` is a *thread-local*
    convenience — a job handle read from another thread would observe
    that thread's last call, not its own execution.  The index shares the
    ring's capacity and evicts oldest-first.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=max(1, int(capacity)))
        self._by_job: OrderedDict[str, object] = OrderedDict()

    @property
    def capacity(self) -> int:
        return self._ring.maxlen

    def record(self, report) -> None:
        with self._lock:
            self._ring.append(report)

    def record_job(self, job_id: str, report) -> None:
        """Attribute ``report`` to ``job_id`` (service per-job lookup).

        Does *not* append to the ring — the runtime already published
        the execution there.
        """
        with self._lock:
            self._by_job[str(job_id)] = report
            self._by_job.move_to_end(str(job_id))
            while len(self._by_job) > self._ring.maxlen:
                self._by_job.popitem(last=False)

    def report_for(self, job_id: str):
        """The ExecutionReport recorded for ``job_id`` (None if evicted
        or never recorded)."""
        with self._lock:
            return self._by_job.get(str(job_id))

    def recent(self, n: int | None = None) -> list:
        """The retained reports, oldest first (the last ``n`` if given)."""
        with self._lock:
            out = list(self._ring)
        return out if n is None else out[-n:]

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._by_job.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def aggregate(self) -> dict[str, PlanStats]:
        """Per-plan-key stats over the retained window, keyed for display."""
        groups: dict[str, list] = {}
        for rep in self.recent():
            groups.setdefault(_plan_key(rep), []).append(rep)
        out: dict[str, PlanStats] = {}
        for key, reps in groups.items():
            lat = sorted(r.duration_s for r in reps)
            paths: dict[str, int] = {}
            for r in reps:
                paths[r.core_path] = paths.get(r.core_path, 0) + 1
            out[key] = PlanStats(
                key=key,
                count=len(reps),
                p50_s=percentile(lat, 0.50),
                p95_s=percentile(lat, 0.95),
                mean_s=sum(lat) / len(lat),
                best_s=lat[0],
                peak_bytes_hw=max(r.peak_workspace_bytes for r in reps),
                total_batch=sum(r.batch for r in reps),
                total_io_bytes=sum(getattr(r, "io_bytes", 0) for r in reps),
                total_tiles=sum(getattr(r, "n_tiles", 0) for r in reps),
                core_paths=paths,
            )
        return out

    def stats_for(self, report) -> PlanStats | None:
        """The aggregate for the plan key ``report`` belongs to."""
        return self.aggregate().get(_plan_key(report))


#: The process-wide history the runtime publishes into.
history = ReportHistory()


def record(report) -> None:
    history.record(report)


def record_job(job_id: str, report) -> None:
    history.record_job(job_id, report)


def report_for(job_id: str):
    return history.report_for(job_id)


def recent(n: int | None = None) -> list:
    return history.recent(n)


def aggregate() -> dict[str, PlanStats]:
    return history.aggregate()


def stats_for(report) -> PlanStats | None:
    return history.stats_for(report)


def clear() -> None:
    history.clear()
