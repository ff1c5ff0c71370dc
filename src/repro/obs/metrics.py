"""Process-wide metrics registry: counters, gauges, and histograms.

Before this module the stack's health counters were scattered behind
module-private APIs — ``plan_cache_info()`` in :mod:`repro.core.compile`
and ``arena_stats()`` in :mod:`repro.core.workspace`.  The registry
absorbs them behind one :func:`snapshot` call:

* **Counter** — a monotonically increasing integer with thread-safe
  :meth:`~Counter.inc` (e.g. ``runtime.executions``).
* **Gauge** — a read-on-demand callback; the sources above register as
  gauges, so a snapshot always reflects the live structures instead of
  a shadow copy that could drift.
* **Histogram** — streaming count/min/max/mean plus a bounded reservoir
  of recent observations for p50/p95 (e.g. ``runtime.latency_s``).

``repro stats [--json]`` prints a snapshot; :func:`describe` feeds the
generated "Observability" section of ``docs/architecture.md``.  All
built-in gauge callbacks import lazily so this module stays free of
import cycles with the core it observes.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, is_dataclass

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "describe",
    "gauge",
    "histogram",
    "registry",
    "snapshot",
]


def _plain(value):
    """Coerce stat objects (namedtuples, dataclasses) to JSON-able dicts."""
    if is_dataclass(value) and not isinstance(value, type):
        return {k: _plain(v) for k, v in asdict(value).items()}
    if hasattr(value, "_asdict"):  # namedtuple (CacheInfo and friends)
        return {k: _plain(v) for k, v in value._asdict().items()}
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_plain(v) for v in value]
    return value


class Counter:
    """A monotonically increasing integer (thread-safe)."""

    __slots__ = ("name", "description", "_value", "_lock")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    def value(self) -> int:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge:
    """A read-on-demand value backed by a callback.

    The callback may return a scalar or a mapping/stats object; snapshot
    failures degrade to ``None`` rather than poisoning the whole report
    (a gauge over an optional subsystem must not break ``repro stats``).
    """

    __slots__ = ("name", "description", "_fn")

    def __init__(self, name: str, description: str, fn) -> None:
        self.name = name
        self.description = description
        self._fn = fn

    def value(self):
        try:
            return _plain(self._fn())
        except Exception:
            return None


class Histogram:
    """Streaming summary stats plus a bounded reservoir for percentiles.

    Tracks exact ``count``/``min``/``max``/``mean`` over every
    observation and keeps the most recent ``reservoir`` values for
    p50/p95 — recency-weighted percentiles are the right shape for a
    serving process, where old traffic should age out.
    """

    __slots__ = ("name", "description", "_lock", "_count", "_sum",
                 "_min", "_max", "_recent", "_limit", "_pos")

    def __init__(self, name: str, description: str = "",
                 reservoir: int = 1024) -> None:
        self.name = name
        self.description = description
        self._lock = threading.Lock()
        self._count = 0
        self._sum = 0.0
        self._min = None
        self._max = None
        self._limit = max(1, int(reservoir))
        self._recent: list = []
        self._pos = 0

    def observe(self, value: float) -> None:
        v = float(value)
        with self._lock:
            first = not self._count
            self._count += 1
            self._sum += v
            if first or v < self._min:
                self._min = v
            if first or v > self._max:
                self._max = v
            recent = self._recent
            if len(recent) < self._limit:
                recent.append(v)
            else:
                recent[self._pos] = v
                self._pos = (self._pos + 1) % self._limit

    def value(self) -> dict:
        with self._lock:
            if self._count == 0:
                return {"count": 0}
            window = sorted(self._recent)
            return {
                "count": self._count,
                "min": self._min,
                "max": self._max,
                "mean": self._sum / self._count,
                "p50": percentile(window, 0.50),
                "p95": percentile(window, 0.95),
            }

    def reset(self) -> None:
        with self._lock:
            self._count = 0
            self._sum = 0.0
            self._min = None
            self._max = None
            self._recent = []
            self._pos = 0


def percentile(sorted_values, q: float):
    """Linear-interpolated percentile of an already-sorted list."""
    if not sorted_values:
        return None
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = q * (len(sorted_values) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = rank - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


class MetricsRegistry:
    """One process-wide namespace of counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str, description: str = "") -> Counter:
        with self._lock:
            c = self._counters.get(name)
            if c is None:
                c = self._counters[name] = Counter(name, description)
            return c

    def gauge(self, name: str, description: str, fn) -> Gauge:
        with self._lock:
            g = Gauge(name, description, fn)
            self._gauges[name] = g
            return g

    def histogram(self, name: str, description: str = "",
                  reservoir: int = 1024) -> Histogram:
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                h = self._histograms[name] = Histogram(
                    name, description, reservoir)
            return h

    def snapshot(self) -> dict:
        """One JSON-able dict with every metric's current value."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {n: c.value() for n, c in sorted(counters.items())},
            "gauges": {n: g.value() for n, g in sorted(gauges.items())},
            "histograms": {n: h.value() for n, h in sorted(histograms.items())},
        }

    def describe(self) -> list[tuple[str, str, str]]:
        """``(kind, name, description)`` rows for every registered metric."""
        with self._lock:
            rows = [("counter", c.name, c.description)
                    for c in self._counters.values()]
            rows += [("gauge", g.name, g.description)
                     for g in self._gauges.values()]
            rows += [("histogram", h.name, h.description)
                     for h in self._histograms.values()]
        return sorted(rows, key=lambda r: (r[0], r[1]))

    def reset(self) -> None:
        """Zero counters and histograms (gauges read live state anyway)."""
        with self._lock:
            counters = list(self._counters.values())
            histograms = list(self._histograms.values())
        for c in counters:
            c.reset()
        for h in histograms:
            h.reset()


#: The process-wide registry every subsystem registers into.
registry = MetricsRegistry()


def counter(name: str, description: str = "") -> Counter:
    return registry.counter(name, description)


def gauge(name: str, description: str, fn) -> Gauge:
    return registry.gauge(name, description, fn)


def histogram(name: str, description: str = "",
              reservoir: int = 1024) -> Histogram:
    return registry.histogram(name, description, reservoir)


def snapshot() -> dict:
    return registry.snapshot()


def describe() -> list[tuple[str, str, str]]:
    return registry.describe()


# ---------------------------------------------------------------------- #
# Built-in gauges over the core's existing stat surfaces.  Callbacks
# import lazily: the core imports this module, not the other way around.
# ---------------------------------------------------------------------- #
def _plan_cache() -> dict:
    from repro.core import compile as plancache
    return plancache.plan_cache_info()._asdict()


def _arena():
    from repro.core.workspace import arena_stats
    return arena_stats()


gauge("plan_cache",
      "Compiled-plan cache: hits, misses, maxsize, currsize", _plan_cache)
gauge("workspace.arena",
      "Runtime workspace arena: allocations, reuses, byte totals, "
      "peak high-water", _arena)
