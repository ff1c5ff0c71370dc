"""A shared 2-D operand on ``multiply_batched``'s BLAS route.

``np.matmul`` broadcasts a 2-D operand over the stack, so the route
passes it as it is instead of copying it once per matrix.  Results stay
bitwise-equal to the interpreted classical plan, and the traced peak
stays below the result plus one stacked operand copy (the copy the
route used to make).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.executor import multiply_batched
from repro.core.runtime import last_report
from repro.core.selection import auto_config
from repro.core.spec import invalidate_decisions
from test_blas_classical import _assert_same, _forced

BATCH, M, K, N = 16, 96, 80, 72


def _peak_bytes(call):
    """``(result, tracemalloc peak bytes)`` of one call."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.mark.parametrize("with_c", [False, True], ids=["fresh", "caller_c"])
@pytest.mark.parametrize("shared", ["A", "B"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_shared_operand_is_broadcast(rng, dtype, shared, with_c):
    A = rng.standard_normal((BATCH, M, K)).astype(dtype)
    B = rng.standard_normal((BATCH, K, N)).astype(dtype)
    if shared == "A":
        A = A[0].copy()
    else:
        B = B[0].copy()
    C0 = rng.standard_normal((BATCH, M, N)).astype(dtype) if with_c else None
    want = _forced(A, B, None if C0 is None else C0.copy())
    itemsize = np.dtype(dtype).itemsize
    result_bytes = BATCH * M * N * itemsize
    stacked_copy = BATCH * (M * K if shared == "A" else K * N) * itemsize
    # Price the model outside the traced window; the route is still
    # resolved inside it.
    auto_config(M, K, N, tune="off")
    invalidate_decisions()
    for _ in range(2):  # a memo miss, then a hit
        C = None if C0 is None else C0.copy()
        got, peak = _peak_bytes(
            lambda: multiply_batched(A, B, C, engine="auto", tune="off"))
        rep = last_report()
        assert rep.core_path == "blas" and rep.batch == BATCH
        _assert_same(got, want)
        assert peak < result_bytes + stacked_copy
