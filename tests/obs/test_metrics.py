"""Metrics registry: counters under threads, gauges, histograms, snapshot."""

import threading

import numpy as np
import pytest

from repro.obs import metrics
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    percentile,
    registry,
)


def test_counter_exact_under_threads():
    reg = MetricsRegistry()
    c = reg.counter("t.hits", "test counter")
    n_threads, per_thread = 8, 2500

    def work():
        for _ in range(per_thread):
            c.inc()

    threads = [threading.Thread(target=work) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert c.value() == n_threads * per_thread
    assert reg.snapshot()["counters"]["t.hits"] == n_threads * per_thread


def test_counter_idempotent_registration():
    reg = MetricsRegistry()
    a = reg.counter("same", "first")
    b = reg.counter("same", "second registration ignored")
    assert a is b
    assert a.description == "first"


def test_gauge_reads_live_and_degrades_to_none():
    reg = MetricsRegistry()
    state = {"v": 1}
    reg.gauge("ok", "live read", lambda: state["v"])
    reg.gauge("broken", "raises", lambda: 1 / 0)
    assert reg.snapshot()["gauges"] == {"ok": 1, "broken": None}
    state["v"] = 7
    assert reg.snapshot()["gauges"]["ok"] == 7


def test_histogram_summary_and_percentiles():
    h = Histogram("lat", reservoir=100)
    for v in range(1, 101):  # 1..100
        h.observe(float(v))
    val = h.value()
    assert val["count"] == 100
    assert val["min"] == 1.0 and val["max"] == 100.0
    assert val["mean"] == pytest.approx(50.5)
    assert val["p50"] == pytest.approx(50.5)
    assert val["p95"] == pytest.approx(95.05)


def test_histogram_reservoir_is_recency_weighted():
    h = Histogram("lat", reservoir=10)
    for v in range(1000):
        h.observe(float(v))
    val = h.value()
    assert val["count"] == 1000  # exact totals survive the bounded window
    assert val["max"] == 999.0
    assert val["p50"] >= 990.0  # percentiles reflect the recent window


def test_percentile_interpolation():
    assert percentile([], 0.5) is None
    assert percentile([3.0], 0.95) == 3.0
    assert percentile([1.0, 2.0], 0.5) == pytest.approx(1.5)


def test_plain_coerces_namedtuples_nested():
    from collections import namedtuple

    Point = namedtuple("Point", "x y")
    out = metrics._plain({"p": Point(1, [Point(2, 3)])})
    assert out == {"p": {"x": 1, "y": [{"x": 2, "y": 3}]}}


def test_builtin_gauges_cover_core_stat_surfaces():
    import repro.core.runtime  # noqa: F401  (registers runtime metrics)

    snap = registry.snapshot()
    for name in ("plan_cache", "workspace.arena"):
        assert name in snap["gauges"], name
    assert "pools.threads" not in snap["gauges"]  # the runtime owns no pools
    assert {"hits", "misses", "maxsize", "currsize"} <= set(
        snap["gauges"]["plan_cache"])
    assert "runtime.executions" in snap["counters"]
    assert "runtime.latency_s" in snap["histograms"]


def test_runtime_execution_updates_metrics():
    import repro.core.runtime  # noqa: F401
    from repro.core.executor import multiply

    before = registry.snapshot()
    rng = np.random.default_rng(0)
    A, B = rng.standard_normal((48, 48)), rng.standard_normal((48, 48))
    multiply(A, B, algorithm="strassen", levels=1)
    after = registry.snapshot()
    assert (after["counters"]["runtime.executions"]
            == before["counters"]["runtime.executions"] + 1)
    lat = after["histograms"]["runtime.latency_s"]
    assert lat["count"] >= 1
    assert lat["min"] > 0


def test_describe_lists_registered_metrics():
    import repro.core.runtime  # noqa: F401

    rows = registry.describe()
    kinds = {(kind, name) for kind, name, _ in rows}
    assert ("gauge", "plan_cache") in kinds
    assert ("counter", "runtime.executions") in kinds
    assert ("histogram", "runtime.latency_s") in kinds
    assert all(desc for kind, name, desc in rows
               if name.startswith(("plan_cache", "runtime.")))
    assert rows == sorted(rows, key=lambda r: (r[0], r[1]))


def test_snapshot_is_json_serializable():
    import json

    import repro.core.runtime  # noqa: F401

    json.dumps(registry.snapshot())
