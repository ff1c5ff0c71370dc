"""Names the perf ledger (``benchmarks/ledger/workloads.py``) still calls.

The worker-process runtime and the compiled leaf backends are gone, but
the ledger imports ``shutdown_process_pools``, indexes the 7-tuple
``auto_config`` result, passes ``backend="reference"`` /
``workers="threads"`` and reads four report fields.  These stay until
the ledger stops using them.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core import compile as plancache
from repro.core.runtime import execute_plan, last_report


def test_shutdown_process_pools_is_a_noop():
    from repro.core.procpool import shutdown_process_pools

    assert shutdown_process_pools() is None


@pytest.mark.parametrize("threads", [None, 2])
def test_auto_config_keeps_its_shape(threads):
    cfg = repro.auto_config(1536, 1536, 1536, tune="off", threads=threads)
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
    execute_plan(cplan, A, B, C, threads=2, backend="reference",
                 workers="threads")
    np.testing.assert_allclose(C, A @ B)
    rep = last_report()
    assert rep.backend == "reference"
    assert rep.worker_mode == "threads" and rep.threads == 2
    assert rep.ipc_bytes == 0


@pytest.mark.parametrize("kwargs,match", [
    ({"backend": "specialized"}, "backend"),
    ({"backend": "numba"}, "backend"),
    ({"workers": "processes"}, "workers"),
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
