"""Worker-mode invariance: serial vs threads.

The runtime's reproducibility contract across worker modes:

* The thread runtime is **deterministic** at a fixed worker count: the
  task partition and the slot reduction order are static, so rerunning
  a threaded multiply is bitwise identical, for both lowering modes.
* ``staged`` fusion is additionally bitwise invariant across worker
  *counts* (serial included) for the +-1-coefficient schedules: every
  count materializes the same slabs and accumulates in the same slot
  order, and splitting a +-1 gemm by rows does not re-associate it.
  General-coefficient schedules (``<3,3,3>``) may differ from the serial
  baseline in final-ulp tail elements, because changing a dgemm's row
  count can switch BLAS accumulation kernels — those compare to
  tolerance.
* ``fused`` fusion reassociates the reduction across counts (slot-private
  accumulators), so the serial comparison is to tolerance only.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.core.executor import multiply
from repro.core.runtime import last_report

# (algorithm, levels, serial_bitwise_staged).  The serial-bitwise flag is
# empirical per schedule: splitting the <2,2,2>-family gemms by rows is
# accumulation-stable, while the rectangular factors can hit different
# BLAS tail kernels at different row counts.
SCHEDULES = [
    ("strassen", 1, True),
    ("strassen", 2, True),
    ("<3,3,3>", 1, False),
    ("strassen+<3,2,3>", 2, False),
]
VARIANTS = ["naive", "ab", "abc"]
DTYPES = [np.float64, np.float32]
FUSIONS = ["staged", "fused"]


def _problem(algorithm, levels, dtype):
    # Sides past the core block shape, plus a ragged fringe so peeling
    # stays exercised.
    base = 24 if levels == 1 else 36
    m, k, n = 2 * base + 5, 2 * base + 3, 2 * base + 7
    rng = np.random.default_rng(zlib.crc32(f"{algorithm}@{levels}".encode()))
    A = rng.standard_normal((m, k)).astype(dtype)
    B = rng.standard_normal((k, n)).astype(dtype)
    return A, B


@pytest.mark.parametrize("algorithm,levels,serial_bitwise", SCHEDULES)
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("fusion", FUSIONS)
def test_worker_mode_invariance(algorithm, levels, serial_bitwise,
                                variant, dtype, fusion):
    A, B = _problem(algorithm, levels, dtype)
    kw = dict(algorithm=algorithm, levels=levels, variant=variant,
              fusion=fusion)
    C_serial = multiply(A, B, threads=1, **kw)
    assert last_report().worker_mode == "serial"
    C_thread = multiply(A, B, threads=2, workers="threads", **kw)
    rep = last_report()
    assert rep.worker_mode == "threads" and rep.n_workers == 2
    C_rerun = multiply(A, B, threads=2, workers="threads", **kw)

    # A fixed worker count partitions and reduces in a fixed order.
    assert np.array_equal(C_thread, C_rerun), (
        f"threaded rerun diverged for {kw}"
    )
    if fusion == "staged" and serial_bitwise:
        assert np.array_equal(C_serial, C_thread), (
            f"staged lowering not bitwise across worker counts for {kw}"
        )
    else:
        rtol = 1e-10 if dtype == np.float64 else 1e-4
        np.testing.assert_allclose(C_serial, C_thread, rtol=rtol, atol=rtol)

    ref = (A.astype(np.float64) @ B.astype(np.float64)).astype(dtype)
    tol = 1e-9 if dtype == np.float64 else 1e-2
    scale = max(1.0, float(np.abs(ref).max()))
    assert float(np.abs(C_serial - ref).max()) / scale < tol
