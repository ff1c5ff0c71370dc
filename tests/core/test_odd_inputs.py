"""Defined behaviour for odd inputs at the public entry points.

* Empty dimensions under ``engine="auto"`` return ``A @ B`` (zeros or an
  empty array) through the BLAS route, without touching the wisdom
  store, in every ``tune`` mode.
* Complex operands raise ``TypeError`` naming the dtype: every path
  computes in a real dtype, so a cast would drop the imaginary part.
* A caller's ``C`` that cannot hold the compute dtype raises
  ``TypeError`` naming both dtypes before any selection, plan compile,
  arena checkout or span.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import compile as plancache
from repro.core.executor import multiply, multiply_batched
from repro.core.runtime import last_report
from repro.core.workspace import arena_stats
from repro.obs import metrics, trace
from repro.serve import MultiplyService
from repro.tune import WisdomStore, set_default_store


@pytest.fixture
def fresh_store(tmp_path):
    """An empty default store on a path that does not exist yet."""
    store = WisdomStore(tmp_path / "wisdom.json")
    set_default_store(store)
    yield store
    set_default_store(None)


def _executions() -> int:
    return metrics.snapshot()["counters"]["runtime.executions"]


EMPTY = [(0, 5, 6), (4, 0, 5), (4, 5, 0)]


class TestEmptyDimensionsUnderAuto:
    @pytest.mark.parametrize("tune", ["off", "readonly", "on"])
    @pytest.mark.parametrize("mkn", EMPTY)
    def test_multiply(self, fresh_store, rng, mkn, tune):
        m, k, n = mkn
        A = rng.standard_normal((m, k))
        B = rng.standard_normal((k, n))
        C = multiply(A, B, engine="auto", tune=tune)
        assert C.shape == (m, n)
        np.testing.assert_array_equal(C, A @ B)
        assert last_report().core_path == "blas"
        assert not fresh_store.path.exists()

    @pytest.mark.parametrize("tune", ["off", "readonly", "on"])
    @pytest.mark.parametrize("mkn", EMPTY)
    def test_multiply_batched(self, fresh_store, rng, mkn, tune):
        m, k, n = mkn
        A = rng.standard_normal((3, m, k))
        B = rng.standard_normal((3, k, n))
        C = multiply_batched(A, B, engine="auto", tune=tune)
        assert C.shape == (3, m, n)
        np.testing.assert_array_equal(C, A @ B)
        assert last_report().core_path == "blas"
        assert not fresh_store.path.exists()


class TestComplexOperandsRaise:
    @pytest.fixture(params=["A", "B"])
    def operands(self, request, rng):
        A = rng.standard_normal((16, 16))
        B = rng.standard_normal((16, 16))
        if request.param == "A":
            A = A + 1j * rng.standard_normal((16, 16))
        else:
            B = B + 1j * rng.standard_normal((16, 16))
        return A, B

    @pytest.mark.parametrize("kwargs", [
        {"engine": "auto", "tune": "off"},
        {"algorithm": "strassen"},
        {"algorithm": "classical"},
    ])
    def test_multiply(self, operands, kwargs):
        A, B = operands
        before = _executions()
        with pytest.raises(TypeError, match="complex128"):
            multiply(A, B, **kwargs)
        assert _executions() == before

    def test_multiply_batched(self, operands):
        A, B = operands
        before = _executions()
        with pytest.raises(TypeError, match="complex128"):
            multiply_batched(A[None], B[None], engine="auto", tune="off")
        with pytest.raises(TypeError, match="complex128"):
            multiply_batched(A[None], B[None], algorithm="strassen")
        assert _executions() == before

    def test_service_submit(self, operands):
        A, B = operands
        before = _executions()
        with MultiplyService() as svc:
            with pytest.raises(TypeError, match="complex128"):
                svc.submit(A, B)
            assert svc.stats()["submitted"] == 0
        assert _executions() == before


class TestIntegerCFailsBeforeWork:
    @pytest.mark.parametrize("kwargs", [
        {"engine": "auto", "tune": "off"},
        {"algorithm": "strassen"},
        {"algorithm": "classical"},
        {"algorithm": "strassen", "engine": "blocked"},
    ])
    @pytest.mark.parametrize("batched", [False, True])
    def test_rejected_untouched(self, rng, kwargs, batched):
        lead = (2,) if batched else ()
        A = rng.standard_normal(lead + (32, 32))
        B = rng.standard_normal(lead + (32, 32))
        C = np.arange(np.prod(lead + (32, 32)), dtype=np.int64).reshape(
            lead + (32, 32))
        C0 = C.copy()
        call = multiply_batched if batched else multiply
        cache0, arena0, runs0 = (plancache.plan_cache_info(), arena_stats(),
                                 _executions())
        trace.enable()
        try:
            trace.clear()
            with pytest.raises(TypeError, match="int64") as info:
                call(A, B, C, **kwargs)
            spans = trace.spans()
        finally:
            trace.disable()
            trace.clear()
        assert "float64" in str(info.value)
        np.testing.assert_array_equal(C, C0)
        assert spans == []
        assert plancache.plan_cache_info().misses == cache0.misses
        assert arena_stats() == arena0
        assert _executions() == runs0
