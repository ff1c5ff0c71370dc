"""Job-count-bounded stress/soak: sustained load leaks nothing, drains clean.

A two-thread service absorbs a sustained mixed-shape submit load of a
fixed number of jobs (``SOAK_JOBS`` — no wall-clock budget, so a slow or
busy host runs the same load, only longer).  The load mixes dtypes,
schedules and a ragged shape.  Afterwards the invariants the serving
layer promises:

* ``shutdown(drain=True)`` returns ``True`` and every accepted job
  reaches a terminal state — the queue drains to empty, nothing wedges.
* Zero leaked arena bytes: every workspace the executions checked out
  went back (``arena_stats().bytes_in_use == 0``).
"""

from __future__ import annotations

import numpy as np

from repro.core.executor import multiply
from repro.core.workspace import arena_stats
from repro.serve import MultiplyService

#: Jobs the soak submits (several times the 64-job outstanding window so
#: the queue fills and drains repeatedly).
SOAK_JOBS = 1536

# Small shapes keep per-job latency tiny so the budget buys many jobs;
# the mix covers both dtypes, two schedules, and a ragged (peeled) shape.
SPECS = [
    ((48, 48, 48), np.float64, "strassen", 1),
    ((48, 48, 48), np.float32, "strassen", 1),
    ((45, 51, 39), np.float64, "strassen", 1),
    ((54, 48, 54), np.float64, "<3,3,3>", 1),
    ((64, 64, 64), np.float64, "strassen", 2),
]


def test_sustained_load_leaks_nothing_and_drains(rng):
    operands = [
        (rng.standard_normal((m, k)).astype(dt),
         rng.standard_normal((k, n)).astype(dt), alg, lv)
        for (m, k, n), dt, alg, lv in SPECS
    ]

    handles = []
    submitted = 0
    svc = MultiplyService()
    try:
        for idx in range(SOAK_JOBS):
            A, B, alg, lv = operands[idx % len(operands)]
            handles.append(
                (svc.submit(A, B, algorithm=alg, levels=lv),
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
        A, B, alg, lv = operands[spec_idx]
        assert np.array_equal(h.result(timeout=1.0),
                              multiply(A, B, algorithm=alg, levels=lv))

    # Zero leaked arena bytes: every checked-out workspace went back.
    assert arena_stats().bytes_in_use == 0


def test_drain_false_discards_backlog_without_leaking(rng):
    """The non-draining path must also leak nothing: pending jobs are
    cancelled, in-flight work completes, arenas come back empty."""
    A = rng.standard_normal((48, 48))
    B = rng.standard_normal((48, 48))
    svc = MultiplyService()
    handles = [svc.submit(A, B) for _ in range(16)]
    svc.shutdown(drain=False, timeout=60.0)
    for h in handles:
        assert h.status in ("complete", "cancelled")
    assert svc.stats()["queue_depth"] == 0
    assert svc.stats()["pending_bytes"] == 0
    assert arena_stats().bytes_in_use == 0
