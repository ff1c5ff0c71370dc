"""Job-count-bounded stress/soak: sustained load leaks nothing, drains clean.

A two-thread service absorbs a sustained mixed-shape submit load of a
fixed number of jobs (``SOAK_JOBS`` — no wall-clock budget, so a slow or
busy host runs the same load, only longer).  The load mixes dtypes,
schedules, a ragged shape, and a slice of ``workers="processes"`` jobs
so the shared-memory staging path is exercised too.  Afterwards the
invariants the serving layer promises:

* ``shutdown(drain=True)`` returns ``True`` and every accepted job
  reaches a terminal state — the queue drains to empty, nothing wedges.
* Zero leaked arena bytes: every workspace the batched executions
  checked out went back (``arena_stats().bytes_in_use == 0``).
* Zero leaked SHM segments: any ``/dev/shm`` entry this process created
  during the soak is owned by the shared arena's pool (and a pool clear
  removes it from the host).  Segment names carry the creating pid, so
  the check sees only this process's segments, never another repro
  process's on the same host.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro.core.executor import multiply
from repro.core.procpool import shutdown_process_pools
from repro.core.workspace import (
    SHM_PREFIX,
    arena_stats,
    shared_arena,
    shared_arena_clear,
)
from repro.serve import MultiplyService

#: Jobs the soak submits (a multiple of the spec mix, several times the
#: 64-job outstanding window so the queue fills and drains repeatedly).
SOAK_JOBS = 1536

# Small shapes keep per-job latency tiny so the budget buys many jobs;
# the mix covers both dtypes, two schedules, and a ragged (peeled) shape.
SPECS = [
    ((48, 48, 48), np.float64, "strassen", 1, "threads"),
    ((48, 48, 48), np.float32, "strassen", 1, "threads"),
    ((45, 51, 39), np.float64, "strassen", 1, "threads"),
    ((54, 48, 54), np.float64, "<3,3,3>", 1, "threads"),
    ((64, 64, 64), np.float64, "strassen", 2, "threads"),
    ((64, 64, 64), np.float64, "strassen", 1, "processes"),
]


def _own_shm_names() -> set[str]:
    """This process's SHM segments (the parent creates every one)."""
    return {
        os.path.basename(p)
        for p in glob.glob(f"/dev/shm/{SHM_PREFIX}_{os.getpid()}_*")
    }


@pytest.fixture(autouse=True)
def _clean_pools():
    yield
    shutdown_process_pools()


def test_sustained_load_leaks_nothing_and_drains(rng):
    operands = [
        (rng.standard_normal((m, k)).astype(dt),
         rng.standard_normal((k, n)).astype(dt), alg, lv, wk)
        for (m, k, n), dt, alg, lv, wk in SPECS
    ]
    shm_before = _own_shm_names()

    handles = []
    submitted = 0
    svc = MultiplyService(threads=2)
    try:
        for idx in range(SOAK_JOBS):
            A, B, alg, lv, wk = operands[idx % len(operands)]
            handles.append(
                (svc.submit(A, B, algorithm=alg, levels=lv, workers=wk),
                 idx % len(operands))
            )
            submitted += 1
            # Bound the outstanding window so the soak exercises steady
            # state (queue fills and drains repeatedly), not one giant
            # backlog.
            if len(handles) >= 64:
                for h, _ in handles[:32]:
                    h.result(timeout=60.0)
                del handles[:32]
        drained = svc.shutdown(drain=True, timeout=120.0)
    finally:
        svc.shutdown(timeout=120.0)

    assert submitted == SOAK_JOBS
    assert drained is True

    # The queue drained: every accepted job reached a terminal state.
    stats = svc.stats()
    assert stats["queue_depth"] == 0
    assert stats["pending_bytes"] == 0
    assert stats["completed"] == submitted
    assert stats["errors"] == 0
    for h, _ in handles:
        assert h.status == "complete"

    # Spot-check correctness of the tail against the direct serial path.
    for h, spec_idx in handles[-len(SPECS):]:
        A, B, alg, lv, _ = operands[spec_idx]
        assert np.array_equal(h.result(timeout=1.0),
                              multiply(A, B, algorithm=alg, levels=lv))

    # Zero leaked arena bytes: every checked-out workspace went back.
    assert arena_stats().bytes_in_use == 0

    # Zero leaked SHM segments: anything new we created is pool-owned...
    leaked = _own_shm_names() - shm_before - set(shared_arena.segment_names())
    assert not leaked, f"orphaned SHM segments: {sorted(leaked)}"

    # ...and clearing the pool returns this process to its baseline.
    shutdown_process_pools()
    shared_arena_clear()
    assert _own_shm_names() - shm_before == set()


def test_drain_false_discards_backlog_without_leaking(rng):
    """The non-draining path must also leak nothing: pending jobs are
    cancelled, in-flight work completes, arenas come back empty."""
    A = rng.standard_normal((48, 48))
    B = rng.standard_normal((48, 48))
    svc = MultiplyService(threads=2)
    handles = [svc.submit(A, B) for _ in range(16)]
    svc.shutdown(drain=False, timeout=60.0)
    for h in handles:
        assert h.status in ("complete", "cancelled")
    assert svc.stats()["queue_depth"] == 0
    assert svc.stats()["pending_bytes"] == 0
    assert arena_stats().bytes_in_use == 0
