"""Per-job reports route through ReportHistory, never the thread-local.

``runtime.last_report()`` is a *thread-local* convenience: a service
client that reads it from its own thread observes that thread's last
execution (usually nothing), not its submitted job — the race the PR-8
docs used to paper over.  The serving layer therefore attributes each
job's ExecutionReport in the bounded history keyed by job id
(``repro.obs.reports.record_job`` / ``report_for``), and
``JobHandle.report()`` reads it back race-free from any thread.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.runtime import last_report
from repro.obs.reports import ReportHistory
from repro.serve import MultiplyService
from repro.serve.testing import ServiceTestClock


class TestReportHistoryJobIndex:
    def test_record_and_lookup_by_job_id(self):
        hist = ReportHistory(capacity=4)
        hist.record_job("job-a", "report-a")
        hist.record_job("job-b", "report-b")
        assert hist.report_for("job-a") == "report-a"
        assert hist.report_for("job-b") == "report-b"
        assert hist.report_for("job-zzz") is None

    def test_index_is_bounded_by_capacity(self):
        hist = ReportHistory(capacity=3)
        for i in range(10):
            hist.record_job(f"job-{i}", f"report-{i}")
        assert hist.report_for("job-0") is None  # evicted oldest-first
        assert hist.report_for("job-9") == "report-9"

    def test_batchmates_share_one_report(self):
        hist = ReportHistory(capacity=8)
        shared = object()
        hist.record_job("job-1", shared)
        hist.record_job("job-2", shared)
        assert hist.report_for("job-1") is hist.report_for("job-2") is shared

    def test_clear_drops_the_job_index(self):
        hist = ReportHistory(capacity=8)
        hist.record_job("job-1", "report")
        hist.clear()
        assert hist.report_for("job-1") is None


class TestInterleavedJobsNeverSwapReports:
    """The regression: two interleaved jobs, each sees only its own."""

    def test_two_interleaved_jobs_get_their_own_reports(self, rng):
        # Distinct plans (shape and dtype differ) so a swapped report is
        # unambiguous, pinned to strassen and submitted into one frozen
        # window so both are in flight together (a default job would run
        # as one BLAS call at once).
        A1 = rng.standard_normal((64, 48))
        B1 = rng.standard_normal((48, 72))
        A2 = rng.standard_normal((32, 32)).astype(np.float32)
        B2 = rng.standard_normal((32, 32)).astype(np.float32)
        clock = ServiceTestClock()
        svc = MultiplyService(batch_window_s=1.0, clock=clock)
        try:
            h1 = svc.submit(A1, B1, algorithm="strassen")
            h2 = svc.submit(A2, B2, algorithm="strassen")
            clock.run_until(lambda: h1.done() and h2.done())
        finally:
            svc.shutdown(timeout=30.0)
        r1, r2 = h1.report(), h2.report()
        assert r1 is not None and r2 is not None
        assert r1.shape == (64, 48, 72) and r1.dtype == "float64"
        assert r2.shape == (32, 32, 32) and r2.dtype == "float32"

    def test_reports_stay_attributed_under_concurrent_readback(self, rng):
        specs = [((64, 48, 72), np.float64), ((32, 32, 32), np.float32)]
        ops = []
        for (m, k, n), dt in specs:
            ops.append((rng.standard_normal((m, k)).astype(dt),
                        rng.standard_normal((k, n)).astype(dt), (m, k, n), dt))
        with MultiplyService() as svc:
            failures: list[str] = []

            def worker(A, B, shape, dt):
                for _ in range(8):
                    h = svc.submit(A, B)
                    h.result(timeout=30.0)
                    rep = h.report()
                    if rep is None or rep.shape != shape \
                            or rep.dtype != np.dtype(dt).name:
                        failures.append(
                            f"{h.id} expected {shape}/{dt}, got "
                            f"{None if rep is None else (rep.shape, rep.dtype)}")

            threads = [threading.Thread(target=worker, args=op)
                       for op in ops for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not failures, failures

    def test_client_thread_local_is_documented_racy_and_empty(self, rng):
        """The failure mode the fix closes: the submitting thread's
        ``last_report()`` does not see its job's execution (the scheduler
        thread ran it), so it must not be used service-side."""
        A = rng.standard_normal((40, 40))
        B = rng.standard_normal((40, 40))
        observed = []

        def fresh_client():
            with MultiplyService() as svc:
                h = svc.submit(A, B)
                h.result(timeout=30.0)
                observed.append((last_report(), h.report()))

        t = threading.Thread(target=fresh_client)
        t.start()
        t.join(30.0)
        tls_report, job_report = observed[0]
        assert tls_report is None  # the client thread executed nothing
        assert job_report is not None
        assert job_report.shape == (40, 40, 40)

    def test_docstring_names_the_history_route(self):
        assert "report_for" in last_report.__doc__
        assert "thread" in last_report.__doc__.lower()


class TestModuleLevelHelpers:
    def test_record_job_and_report_for_roundtrip(self):
        from repro.obs import reports

        sentinel = object()
        reports.record_job("job-helper-test", sentinel)
        assert reports.report_for("job-helper-test") is sentinel

    def test_report_for_unknown_id_is_none(self):
        from repro.obs import reports

        assert reports.report_for("job-never-existed") is None

    def test_public_surface(self):
        from repro.obs import reports

        assert "record_job" in reports.__all__
        assert "report_for" in reports.__all__
