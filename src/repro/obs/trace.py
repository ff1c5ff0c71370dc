"""Near-zero-overhead span tracing for the execution stack.

The runtime's seven ``engine="auto"`` dimensions make "why was this call
slow" unanswerable from a single number; this module provides the
timeline.  A *span* brackets one unit of work — a plan compile, a
gather/product/scatter/reduce phase, an arena checkout, a worker task —
with ``time.perf_counter_ns`` timestamps, and every record lands in one
preallocated ring buffer whose capacity bounds memory no matter how long
the process serves.

The contract that keeps instrumentation safe to leave in hot paths:

* **Disabled is the default and costs almost nothing.**  When tracing is
  off, :func:`span` returns one shared no-op context manager — the whole
  instrumentation point is a module-flag check plus an argument-dict
  build, benchmarked at well under 2% of the plan-cache hot path
  (``benchmarks/bench_observability.py`` gates this in CI).
* **Span ids are thread-aware.**  Ids are allocated from a per-thread
  counter (no cross-thread locking) and recorded together with
  ``(pid, tid)``, so spans from pooled threads merge into one coherent
  timeline.
* **Nesting is explicit.**  Each thread keeps a stack of open spans;
  a record's ``parent_id`` is the enclosing span on the same thread.

Export with :func:`export_chrome` — the Chrome trace-event JSON format
(``chrome://tracing`` / Perfetto) — or inspect :func:`spans` directly.
The ``repro trace run`` CLI wraps the whole flow.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "DEFAULT_CAPACITY",
    "SpanRecord",
    "clear",
    "disable",
    "drain",
    "enable",
    "export_chrome",
    "instant",
    "is_enabled",
    "span",
    "spans",
]

#: Default ring capacity (records); the oldest spans are overwritten.
DEFAULT_CAPACITY = 8192

_lock = threading.Lock()
_enabled = False
_capacity = DEFAULT_CAPACITY
_ring: list = [None] * DEFAULT_CAPACITY
_head = 0          # next write slot
_total = 0         # records ever written (detects wraparound)
_tls = threading.local()


@dataclass(frozen=True)
class SpanRecord:
    """One completed span: what ran, where, and for how long.

    ``span_id`` is unique within ``(pid, tid)`` (per-thread counter);
    ``parent_id`` is the id of the enclosing span on the same thread
    (0 at top level).  ``dur_ns == 0`` marks an instant event.
    """

    name: str
    cat: str
    start_ns: int
    dur_ns: int
    pid: int
    tid: int
    span_id: int
    parent_id: int
    args: dict = field(default_factory=dict)


class _NoopSpan:
    """The shared disabled-path context manager: every method is a no-op."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **kw) -> None:
        pass


_NOOP = _NoopSpan()


class _Span:
    """One live span; records itself into the ring on ``__exit__``."""

    __slots__ = ("name", "cat", "args", "start_ns", "span_id", "parent_id")

    def __init__(self, name: str, cat: str, args: dict) -> None:
        self.name = name
        self.cat = cat
        self.args = args

    def set(self, **kw) -> None:
        """Attach (or update) argument fields while the span is open."""
        self.args.update(kw)

    def __enter__(self):
        tls = _tls
        stack = getattr(tls, "stack", None)
        if stack is None:
            stack = tls.stack = []
            tls.seq = 0
        tls.seq += 1
        self.span_id = tls.seq
        self.parent_id = stack[-1].span_id if stack else 0
        stack.append(self)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end_ns = time.perf_counter_ns()
        stack = _tls.stack
        if stack and stack[-1] is self:
            stack.pop()
        _record(SpanRecord(
            name=self.name,
            cat=self.cat,
            start_ns=self.start_ns,
            dur_ns=end_ns - self.start_ns,
            pid=os.getpid(),
            tid=threading.get_ident(),
            span_id=self.span_id,
            parent_id=self.parent_id,
            args=self.args,
        ))
        return False


def span(name: str, cat: str = "runtime", **args):
    """A context manager bracketing one unit of work.

    The hot-path entry point: when tracing is disabled this returns one
    shared no-op object, so instrumentation points stay in production
    code unconditionally.  ``args`` become the span's Chrome-trace
    ``args`` payload; :meth:`~_Span.set` attaches more while open.
    """
    if not _enabled:
        return _NOOP
    return _Span(name, cat, args)


def instant(name: str, cat: str = "runtime", **args) -> None:
    """Record a zero-duration event (cache hit/miss markers and the like)."""
    if not _enabled:
        return
    tls = _tls
    stack = getattr(tls, "stack", None)
    if stack is None:
        stack = tls.stack = []
        tls.seq = 0
    tls.seq += 1
    _record(SpanRecord(
        name=name,
        cat=cat,
        start_ns=time.perf_counter_ns(),
        dur_ns=0,
        pid=os.getpid(),
        tid=threading.get_ident(),
        span_id=tls.seq,
        parent_id=stack[-1].span_id if stack else 0,
        args=args,
    ))


def _record(rec: SpanRecord) -> None:
    global _head, _total
    with _lock:
        if not _enabled:
            return  # raced a disable(): drop rather than resurrect the ring
        _ring[_head] = rec
        _head = (_head + 1) % _capacity
        _total += 1


# ---------------------------------------------------------------------- #
# Control surface
# ---------------------------------------------------------------------- #
def enable(capacity: int | None = None) -> None:
    """Start recording spans (idempotent; ``capacity`` resizes the ring)."""
    global _enabled, _capacity, _ring, _head, _total
    with _lock:
        if capacity is not None:
            cap = int(capacity)
            if cap < 1:
                raise ValueError("capacity must be >= 1")
            _capacity = cap
            _ring = [None] * cap
            _head = 0
            _total = 0
        _enabled = True


def disable() -> None:
    """Stop recording.  Already-recorded spans stay readable."""
    global _enabled
    with _lock:
        _enabled = False


def is_enabled() -> bool:
    return _enabled


def clear() -> None:
    """Drop every recorded span (the ring keeps its capacity)."""
    global _head, _total
    with _lock:
        for i in range(_capacity):
            _ring[i] = None
        _head = 0
        _total = 0


def spans() -> list[SpanRecord]:
    """Recorded spans, oldest first (at most the ring capacity)."""
    with _lock:
        if _total <= _capacity:
            out = _ring[:_head]
        else:
            out = _ring[_head:] + _ring[:_head]
        return [r for r in out if r is not None]


def drain() -> list[SpanRecord]:
    """Return every recorded span and clear the ring (one atomic step)."""
    global _head, _total
    with _lock:
        if _total <= _capacity:
            out = _ring[:_head]
        else:
            out = _ring[_head:] + _ring[:_head]
        for i in range(_capacity):
            _ring[i] = None
        _head = 0
        _total = 0
        return [r for r in out if r is not None]


# ---------------------------------------------------------------------- #
# Chrome trace-event export
# ---------------------------------------------------------------------- #
def export_chrome(path=None) -> dict:
    """The recorded timeline as a Chrome trace-event document.

    Returns the ``{"traceEvents": [...]}`` dict; with ``path`` it is
    also serialized as JSON (openable in ``chrome://tracing`` or
    Perfetto).  Timestamps are microseconds from ``perf_counter``'s
    epoch; complete events (``"ph": "X"``) carry their duration, instant
    events export as ``"ph": "i"``.
    """
    events = []
    for r in spans():
        ev = {
            "name": r.name,
            "cat": r.cat or "runtime",
            "ts": r.start_ns / 1e3,
            "pid": r.pid,
            "tid": r.tid,
            "args": {"span_id": r.span_id, "parent_id": r.parent_id, **r.args},
        }
        if r.dur_ns > 0:
            ev["ph"] = "X"
            ev["dur"] = r.dur_ns / 1e3
        else:
            ev["ph"] = "i"
            ev["s"] = "t"
        events.append(ev)
    doc = {"traceEvents": events, "displayTimeUnit": "ms"}
    if path is not None:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
    return doc


def _reset_after_fork() -> None:  # pragma: no cover - fork hook
    """A forked child inherits the parent's ring; start it clean (the
    inherited lock could be held by a thread that no longer exists)."""
    global _lock, _ring, _head, _total, _tls
    _lock = threading.Lock()
    _ring = [None] * _capacity
    _head = 0
    _total = 0
    _tls = threading.local()


os.register_at_fork(after_in_child=_reset_after_fork)
