"""Property: the service is exactly-once and bitwise-faithful under load.

N concurrent submitter threads fire mixed shapes / dtypes / schedules at
one service.  Whatever the interleaving, every job must terminate
exactly once (complete or error, never both, never neither) in an
execution of its own, every result must be **bitwise** equal to a direct
serial :func:`repro.multiply` with the same spec, and every result must
carry the per-request dtype — a float32 request must never come back
upcast.

The scheduler runs each job as the same 2-D plan execution the direct
call runs, so bitwise equality is a real invariant, not a tolerance
shortcut.
"""

from __future__ import annotations

import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executor import multiply
from repro.serve import MultiplyService
from repro.serve.testing import FaultInjectingExecutor

# The mixed-spec pool: shape x dtype x schedule.  Shapes include a
# ragged one so peeling rides through the service too.
SPECS = [
    ((32, 32, 32), np.float64, "strassen", 1),
    ((32, 32, 32), np.float32, "strassen", 1),
    ((48, 48, 48), np.float64, "strassen", 2),
    ((48, 48, 48), np.float32, "strassen", 2),
    ((45, 51, 39), np.float64, "strassen", 1),
    ((54, 48, 54), np.float64, "<3,3,3>", 1),
    ((54, 48, 54), np.float32, "<3,3,3>", 1),
]


def _operands(spec_idx: int, seed: int):
    (m, k, n), dtype, algorithm, levels = SPECS[spec_idx]
    rng = np.random.default_rng(seed * len(SPECS) + spec_idx)
    A = rng.standard_normal((m, k)).astype(dtype)
    B = rng.standard_normal((k, n)).astype(dtype)
    return A, B, dtype, algorithm, levels


@given(
    jobs=st.lists(st.integers(min_value=0, max_value=len(SPECS) - 1),
                  min_size=1, max_size=24),
    seed=st.integers(min_value=0, max_value=2**16),
    submitters=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=12, deadline=None)
def test_concurrent_mixed_load_is_exactly_once_and_bitwise(
        jobs, seed, submitters):
    ex = FaultInjectingExecutor()
    svc = MultiplyService(executor=ex)
    results: dict[int, tuple] = {}
    lock = threading.Lock()

    def submit_range(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            A, B, dtype, algorithm, levels = _operands(jobs[i], seed)
            h = svc.submit(A, B, algorithm=algorithm, levels=levels)
            with lock:
                results[i] = (h, A, B, dtype, algorithm, levels)

    try:
        per = len(jobs) // submitters
        bounds = [(t * per,
                   (t + 1) * per if t < submitters - 1 else len(jobs))
                  for t in range(submitters)]
        threads = [threading.Thread(target=submit_range, args=b)
                   for b in bounds if b[0] < b[1]]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == len(jobs)
        for h, *_ in results.values():
            h.result(timeout=60.0)
    finally:
        svc.shutdown(timeout=30.0)

    # Exactly once: every handle reached exactly one terminal state, and
    # the executor saw each job id exactly once, one job per call.
    assert sorted(ex.calls) == sorted(h.id for h, *_ in results.values())
    st_counts = svc.stats()
    assert st_counts["completed"] + st_counts["errors"] == len(jobs)
    assert st_counts["batches"] == len(jobs)
    assert st_counts["queue_depth"] == 0

    for i, (h, A, B, dtype, algorithm, levels) in results.items():
        assert h.status == "complete", f"job {i}: {h.status}"
        C = h.result(timeout=1.0)
        # Per-request dtype preserved: no upcast through the service.
        assert C.dtype == dtype
        # Bitwise equal to the direct serial multiply of the same spec.
        ref = multiply(A, B, algorithm=algorithm, levels=levels)
        assert ref.dtype == dtype
        assert np.array_equal(C, ref), (
            f"job {i} ({SPECS[jobs[i]]}) diverged from direct multiply; "
            f"max |delta| = {np.abs(C - ref).max()}"
        )
