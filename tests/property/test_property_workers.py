"""Worker-mode invariance: every execution runs on one worker.

The runtime runs each multiply's phases in order on the calling thread
and leaves the parallelism to BLAS, so its reproducibility contract is:

* ``threads=1`` (what the perf ledger passes), the default and
  ``workers="threads"`` are one execution — bitwise equal, reported as
  ``worker_mode="serial"`` with ``threads == 1``;
* a rerun is bitwise identical, for both lowering modes;
* any other thread count is refused before any work;
* the result matches the float64 oracle.

``serial_bitwise`` marks the ±1-coefficient schedules; with one worker
every schedule reruns bitwise, and the flag stays only so each case
keeps its test id.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.core.executor import multiply
from repro.core.runtime import last_report

# (algorithm, levels, serial_bitwise); see the module docstring.
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
    del serial_bitwise  # every schedule is bitwise at one worker
    A, B = _problem(algorithm, levels, dtype)
    kw = dict(algorithm=algorithm, levels=levels, variant=variant,
              fusion=fusion)
    C_serial = multiply(A, B, threads=1, **kw)
    rep = last_report()
    assert rep.worker_mode == "serial" and rep.threads == 1
    C_default = multiply(A, B, **kw)
    C_rerun = multiply(A, B, threads=1, workers="threads", **kw)

    assert np.array_equal(C_serial, C_default), (
        f"threads=1 and the default diverged for {kw}"
    )
    assert np.array_equal(C_serial, C_rerun), f"rerun diverged for {kw}"
    with pytest.raises(ValueError, match="threads"):
        multiply(A, B, threads=2, **kw)

    ref = (A.astype(np.float64) @ B.astype(np.float64)).astype(dtype)
    tol = 1e-9 if dtype == np.float64 else 1e-2
    scale = max(1.0, float(np.abs(ref).max()))
    assert float(np.abs(C_serial - ref).max()) / scale < tol
