"""Span tracer: nesting, ring wraparound, no-op fast path, Chrome export."""

import json
import os
import threading

import numpy as np
import pytest

from repro.obs import trace


@pytest.fixture(autouse=True)
def _clean_tracer():
    trace.disable()
    trace.clear()
    yield
    trace.disable()
    trace.clear()
    trace.enable(trace.DEFAULT_CAPACITY)
    trace.disable()


def test_disabled_span_is_shared_noop():
    assert not trace.is_enabled()
    a = trace.span("x", "t")
    b = trace.span("y", "t", detail=1)
    assert a is b  # one shared singleton, no allocation per call
    with a as sp:
        sp.set(anything="ignored")
    assert trace.spans() == []


def test_span_records_and_nesting_parent_ids():
    trace.enable()
    with trace.span("outer", "t", depth=0):
        with trace.span("inner", "t", depth=1):
            pass
        with trace.span("inner2", "t"):
            pass
    recs = {r.name: r for r in trace.spans()}
    assert set(recs) == {"outer", "inner", "inner2"}
    outer = recs["outer"]
    assert recs["inner"].parent_id == outer.span_id
    assert recs["inner2"].parent_id == outer.span_id
    assert outer.parent_id == 0  # 0 marks a root span
    # Children close before the parent, so they are recorded first.
    assert outer.start_ns <= recs["inner"].start_ns
    assert outer.dur_ns >= recs["inner"].dur_ns
    assert outer.args == {"depth": 0}


def test_instant_records_zero_duration():
    trace.enable()
    trace.instant("tick", "t", n=3)
    (rec,) = trace.spans()
    assert rec.name == "tick"
    assert rec.dur_ns == 0
    assert rec.args == {"n": 3}


def test_ring_wraparound_keeps_newest():
    trace.enable(capacity=4)
    for i in range(10):
        trace.instant(f"e{i}", "t")
    names = [r.name for r in trace.spans()]
    assert names == ["e6", "e7", "e8", "e9"]  # oldest first, newest kept


def test_clear_and_drain():
    trace.enable()
    trace.instant("a", "t")
    trace.clear()
    assert trace.spans() == []
    trace.instant("b", "t")
    drained = trace.drain()
    assert [r.name for r in drained] == ["b"]
    assert trace.spans() == []  # drain is atomic take-and-clear


def test_span_ids_unique_across_threads():
    trace.enable(capacity=512)
    # Span ids are per-thread counters; (tid, span_id) is unique only
    # among concurrently-live threads (the OS reuses thread ids), so
    # hold every worker alive until all have started.
    barrier = threading.Barrier(4)

    def work():
        barrier.wait()
        for _ in range(20):
            with trace.span("w", "t"):
                pass

    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    recs = trace.spans()
    assert len(recs) == 80
    assert len({(r.tid, r.span_id) for r in recs}) == 80


def test_export_chrome_structure(tmp_path):
    trace.enable()
    with trace.span("outer", "runtime", shape="2x2x2"):
        trace.instant("mark", "compile")
    path = tmp_path / "trace.json"
    doc = trace.export_chrome(path)
    on_disk = json.loads(path.read_text())
    assert on_disk == doc
    events = doc["traceEvents"]
    assert len(events) == 2
    by_name = {e["name"]: e for e in events}
    outer = by_name["outer"]
    assert outer["ph"] == "X"
    assert outer["cat"] == "runtime"
    assert outer["dur"] >= 0
    assert outer["pid"] == os.getpid()
    assert outer["args"]["shape"] == "2x2x2"
    assert by_name["mark"]["ph"] == "i"


def test_runtime_phases_traced_end_to_end():
    from repro.core.executor import multiply

    rng = np.random.default_rng(0)
    A, B = rng.standard_normal((64, 64)), rng.standard_normal((64, 64))
    multiply(A, B, algorithm="strassen", levels=1)  # compile untraced
    trace.enable()
    multiply(A, B, algorithm="strassen", levels=1)
    names = [r.name for r in trace.spans()]
    assert "execute_plan" in names
    assert "plan_cache.hit" in names
    assert any(n.startswith("phase:") for n in names)
    assert "arena.acquire" in names and "arena.recycle" in names
    exec_rec = next(r for r in trace.spans() if r.name == "execute_plan")
    assert exec_rec.args["shape"] == "64x64x64"
    assert exec_rec.args["peak_bytes"] > 0
