"""Report history: bounded ring, aggregation, batched reports, wisdom seeds."""

import numpy as np
import pytest

from repro.core.runtime import ExecutionReport
from repro.obs import reports
from repro.obs.reports import ReportHistory


def _report(duration_s=0.001, schedule="<2,2,2>@1", shape=(64, 64, 64),
            batch=1, **kw):
    defaults = dict(
        shape=shape, batch=batch, variant="abc", fusion="staged",
        core_path="graph",
        peak_workspace_bytes=1 << 20, schedule=schedule,
        dtype="float64", duration_s=duration_s,
    )
    defaults.update(kw)
    return ExecutionReport(**defaults)


@pytest.fixture(autouse=True)
def _clean_history():
    reports.clear()
    yield
    reports.clear()


def test_history_is_bounded_oldest_evicted():
    h = ReportHistory(capacity=3)
    for i in range(5):
        h.record(_report(duration_s=float(i + 1)))
    assert len(h) == 3
    assert [r.duration_s for r in h.recent()] == [3.0, 4.0, 5.0]
    assert [r.duration_s for r in h.recent(2)] == [4.0, 5.0]


def test_aggregate_groups_by_plan_key():
    h = ReportHistory()
    for ms in (1, 2, 3, 4):
        h.record(_report(duration_s=ms / 1e3))
    h.record(_report(shape=(128, 128, 128), duration_s=0.01,
                     core_path="steps"))
    agg = h.aggregate()
    assert len(agg) == 2
    small = agg["64x64x64 float64 <2,2,2>@1/abc"]
    assert small.count == 4
    assert small.best_s == pytest.approx(0.001)
    assert small.p50_s == pytest.approx(0.0025)
    assert small.mean_s == pytest.approx(0.0025)
    assert small.peak_bytes_hw == 1 << 20
    assert small.core_paths == {"graph": 4}
    big = agg["128x128x128 float64 <2,2,2>@1/abc"]
    assert big.count == 1
    assert big.core_paths == {"steps": 1}


def test_stats_for_matches_plan_key():
    h = ReportHistory()
    rep = _report()
    h.record(rep)
    st = h.stats_for(rep)
    assert st is not None and st.count == 1
    assert h.stats_for(_report(shape=(8, 8, 8))) is None


def test_batched_key_is_distinct():
    h = ReportHistory()
    h.record(_report())
    h.record(_report(batch=16, n_chunks=4))
    agg = h.aggregate()
    assert "64x64x64[b16] float64 <2,2,2>@1/abc" in agg
    assert agg["64x64x64[b16] float64 <2,2,2>@1/abc"].total_batch == 16


def test_execute_publishes_into_global_history():
    from repro.core.executor import multiply

    rng = np.random.default_rng(0)
    A, B = rng.standard_normal((48, 48)), rng.standard_normal((48, 48))
    before = len(reports.recent())
    multiply(A, B, algorithm="strassen", levels=1)
    recent = reports.recent()
    assert len(recent) == before + 1
    rep = recent[-1]
    assert rep.shape == (48, 48, 48)
    assert rep.schedule  # signature captured for aggregation
    assert rep.duration_s > 0
    assert reports.stats_for(rep).count >= 1


def test_batched_call_publishes_one_aggregated_report():
    """A batched multiply yields ONE report covering every chunk."""
    from repro.core.compile import compile as compile_plan
    from repro.core.executor import multiply_batched
    from repro.core.runtime import execute_plan, last_report

    rng = np.random.default_rng(1)
    batch, n = 6, 32
    A = rng.standard_normal((batch, n, n))
    B = rng.standard_normal((batch, n, n))
    before = len(reports.recent())
    C = multiply_batched(A, B, algorithm="strassen", levels=1)
    assert np.allclose(C, A @ B)
    assert len(reports.recent()) == before + 1  # not one per chunk
    rep = reports.recent()[-1]
    assert rep.batch == batch

    # Force multiple chunks and check the report still aggregates.
    cplan = compile_plan((n, n, n), "strassen", levels=1, dtype=np.float64)
    C2 = np.zeros((batch, n, n))
    before = len(reports.recent())
    execute_plan(cplan, A, B, C2, chunk_target=1)
    assert np.allclose(C2, A @ B)
    assert len(reports.recent()) == before + 1
    rep = last_report()
    assert rep.n_chunks > 1
    assert rep.batch == batch
