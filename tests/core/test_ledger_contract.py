"""Names the perf ledger (``benchmarks/ledger/workloads.py``) still calls.

The worker-process runtime and the compiled leaf backends are gone, but
the ledger imports ``shutdown_process_pools`` and the runtime's
``shutdown_pools``, indexes the 7-tuple ``auto_config`` result, passes
``threads=1`` / ``backend="reference"`` / ``workers="threads"`` and
reads the report fields in
:data:`LEDGER_FIELDS`.  These stay until the ledger stops using them: a
missing or mistyped field kills the ledger's workload subprocess, and
``run.py`` then prints no result.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core import compile as plancache
from repro.core.runtime import ExecutionReport, execute_plan, last_report
from repro.core.spec import invalidate_decisions
from repro.serve import MultiplyService

#: The report fields the ledger reads, with the types it uses them as.
LEDGER_FIELDS = {
    "peak_workspace_bytes": int,
    "worker_mode": str,
    "threads": int,
    "backend": str,
    "core_path": str,
    "batch": int,
    "io_bytes": int,
    "n_tiles": int,
    "tile_window_bytes": int,
    "ipc_bytes": int,
    "duration_s": float,
}


def _assert_ledger_fields(rep):
    assert isinstance(rep, ExecutionReport)
    for name, kind in LEDGER_FIELDS.items():
        value = getattr(rep, name)
        assert type(value) is kind, (name, value)
    # workloads.py replays a report's configuration through execute_plan.
    assert rep.threads == 1 and rep.backend == "reference"
    assert rep.worker_mode == "serial"


def test_shutdown_process_pools_is_a_noop():
    from repro.core.procpool import shutdown_process_pools
    from repro.core.runtime import shutdown_pools

    assert shutdown_process_pools() is None
    assert shutdown_pools() is None


@pytest.mark.parametrize("threads", [None])
def test_auto_config_keeps_its_shape(threads):
    """The ledger indexes the 7-tuple.  Auto picks no thread count (the
    ledger's call passes none), so ``[4]`` is 1."""
    cfg = repro.auto_config(1536, 1536, 1536, tune="off")
    assert len(cfg) == 7
    assert cfg[4:] == (threads or 1, "reference", "threads")


def test_single_value_keywords_accepted(rng):
    A = rng.standard_normal((24, 24))
    B = rng.standard_normal((24, 24))
    kw = dict(algorithm="strassen", threads=1, backend="reference",
              workers="threads")
    np.testing.assert_allclose(repro.multiply(A, B, **kw), A @ B)
    np.testing.assert_allclose(
        repro.multiply_batched(A[None], B[None], **kw)[0], A @ B)
    cplan = plancache.compile((24, 24, 24), "strassen")
    C = np.zeros((24, 24))
    execute_plan(cplan, A, B, C, threads=1, backend="reference",
                 workers="threads")
    np.testing.assert_allclose(C, A @ B)
    rep = last_report()
    assert rep.backend == "reference"
    assert rep.worker_mode == "serial" and rep.threads == 1
    assert rep.ipc_bytes == 0


@pytest.mark.parametrize("kwargs,match", [
    ({"backend": "specialized"}, "backend"),
    ({"backend": "numba"}, "backend"),
    ({"workers": "processes"}, "workers"),
    ({"threads": 2}, "threads"),
])
def test_other_values_raise(rng, kwargs, match):
    A = rng.standard_normal((8, 8))
    with pytest.raises(ValueError, match=match):
        repro.multiply(A, A, **kwargs)
    with pytest.raises(ValueError, match=match):
        repro.multiply_batched(A[None], A[None], **kwargs)
    cplan = plancache.compile((8, 8, 8), "strassen")
    with pytest.raises(ValueError, match=match):
        execute_plan(cplan, A, A, np.zeros((8, 8)), **kwargs)


class TestReportFields:
    """After every kind of call the ledger times, the report it reads."""

    @pytest.fixture
    def operands(self, rng):
        return rng.standard_normal((48, 40)), rng.standard_normal((40, 56))

    def test_auto_miss_then_memo_hit(self, operands):
        A, B = operands
        invalidate_decisions()
        for _ in range(2):
            np.testing.assert_allclose(repro.multiply(A, B, engine="auto"),
                                       A @ B)
            _assert_ledger_fields(last_report())

    def test_batched_auto_miss_then_memo_hit(self, operands):
        A, B = operands
        A3 = np.stack([A] * 4)
        invalidate_decisions()
        for _ in range(2):
            np.testing.assert_allclose(
                repro.multiply_batched(A3, B, engine="auto"), A3 @ B)
            rep = last_report()
            _assert_ledger_fields(rep)
            assert rep.batch == 4

    def test_pinned_strassen(self, operands):
        A, B = operands
        repro.multiply(A, B, algorithm="strassen", levels=1)
        _assert_ledger_fields(last_report())

    def test_execute_plan_replaying_an_auto_report(self, operands):
        A, B = operands
        repro.multiply(A, B, engine="auto")
        rep = last_report()
        C = np.zeros((48, 56))
        execute_plan(plancache.compile((48, 40, 56), "strassen"), A, B, C,
                     threads=rep.threads, backend=rep.backend,
                     workers="threads")
        np.testing.assert_allclose(C, A @ B)
        _assert_ledger_fields(last_report())

    def test_service_job(self, operands):
        A, B = operands
        with MultiplyService() as svc:
            handle = svc.submit(A, B)
            np.testing.assert_allclose(handle.result(timeout=60), A @ B)
            _assert_ledger_fields(handle.report())
