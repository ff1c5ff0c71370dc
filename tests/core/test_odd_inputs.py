"""Defined behaviour for odd inputs at the public entry points.

* Empty dimensions under ``engine="auto"`` return ``A @ B`` (zeros or an
  empty array) through the BLAS route, without touching the wisdom
  store, under either ``tune`` mode.
* Complex operands raise ``TypeError`` naming the dtype: every path
  computes in a real dtype, so a cast would drop the imaginary part.
* A caller's ``C`` that cannot hold the compute dtype raises
  ``TypeError`` naming both dtypes before any selection, plan compile,
  arena checkout or span.
* Odd operand layouts and types under ``engine="auto"`` give exactly
  ``np.matmul`` of their C-contiguous compute-dtype copies, on a memo
  miss and on the hit that follows; the checks above still run when
  the shape is already memoized.
* The same odd operands through pinned ``strassen@1`` on every
  remaining lowering (staged, fused, tiled) stay within the catalog's
  stability bound (``repro.model.stability``) of ``A @ B`` over their
  float64 copies.
* A caller's odd ``C`` on those lowerings (F-order, a strided view of a
  larger array, the other float dtype) is updated in place and
  returned: it holds ``C0 + A @ B``, and the rest of the larger array is
  untouched.
* Non-finite inputs: the BLAS route reproduces ``A @ B``'s NaN and
  signed-Inf entries; FMM makes at least those outputs non-finite, and
  spreads them further (the ``multiply`` docstring's counts).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core import compile as plancache
from repro.core.executor import multiply, multiply_batched
from repro.core.runtime import last_report
from repro.core.spec import (
    invalidate_decisions,
    resolve_levels,
    set_runtime_tunables,
)
from repro.core.workspace import arena_stats
from repro.model.stability import estimate_forward_error
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
    @pytest.mark.parametrize("tune", ["off", "readonly"])
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

    @pytest.mark.parametrize("tune", ["off", "readonly"])
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


SHAPE = (40, 24, 32)


def _odd_operands(kind, rng, tmp_path):
    """One operand pair of ``kind``; float64 values, so every kind
    computes in float64."""
    m, k, n = SHAPE
    A = rng.standard_normal((m, k))
    B = rng.standard_normal((k, n))
    if kind == "f_order":
        return np.asfortranarray(A), np.asfortranarray(B)
    if kind == "strided":
        return (rng.standard_normal((2 * m, 3 * k))[::2, 1::3],
                rng.standard_normal((3 * k, 2 * n))[::3, ::2])
    if kind == "read_only":
        A.setflags(write=False)
        B.setflags(write=False)
        return A, B
    if kind == "memmap":
        out = []
        for name, X in (("A", A), ("B", B)):
            mm = np.memmap(tmp_path / name, dtype=X.dtype, mode="w+",
                           shape=X.shape)
            mm[...] = X
            out.append(mm)
        return tuple(out)
    if kind == "matrix":
        return np.matrix(A), np.matrix(B)
    if kind == "lists":
        return A.tolist(), B.tolist()
    if kind == "float16":
        return A.astype(np.float16), B.astype(np.float16)
    if kind == "bool":
        return A > 0, B > 0
    if kind == "int8":
        return (A * 9).astype(np.int8), (B * 9).astype(np.int8)
    if kind == "object":
        return A.astype(object), B.astype(object)
    raise AssertionError(kind)


ODD_KINDS = ["f_order", "strided", "read_only", "memmap", "matrix", "lists",
             "float16", "bool", "int8", "object"]


@pytest.mark.filterwarnings("ignore:the matrix subclass")
class TestOddOperandsThroughAMemoHit:
    @pytest.mark.parametrize("kind", ODD_KINDS)
    def test_multiply(self, rng, tmp_path, kind):
        A, B = _odd_operands(kind, rng, tmp_path)
        want = np.matmul(np.ascontiguousarray(np.asarray(A), dtype=np.float64),
                         np.ascontiguousarray(np.asarray(B), dtype=np.float64))
        invalidate_decisions()
        for _ in range(2):  # a memo miss, then a hit
            C = multiply(A, B, engine="auto", tune="off")
            assert last_report().core_path == "blas"
            assert type(C) is np.ndarray and C.dtype == np.float64
            assert np.array_equal(C, want)

    @pytest.mark.parametrize("kind", ODD_KINDS)
    def test_multiply_batched(self, rng, tmp_path, kind):
        A, B = _odd_operands(kind, rng, tmp_path)
        A3 = np.stack([np.asarray(A)] * 3)
        want = np.matmul(np.ascontiguousarray(A3, dtype=np.float64),
                         np.ascontiguousarray(np.asarray(B), dtype=np.float64))
        invalidate_decisions()
        for _ in range(2):
            C = multiply_batched(A3, B, engine="auto", tune="off")
            assert last_report().core_path == "blas"
            assert np.array_equal(C, want)


def _float64(X) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(X), dtype=np.float64)


def _stability_bound(A, B) -> float:
    """The normwise forward-error bound of ``strassen@1`` on ``SHAPE``."""
    est = estimate_forward_error(resolve_levels("strassen", 1), SHAPE[1])
    return est.absolute_bound(np.linalg.norm(A), np.linalg.norm(B))


@pytest.mark.filterwarnings("ignore:the matrix subclass")
class TestOddOperandsOnEveryLowering:
    """Pinned FMM takes every operand the BLAS route takes, on each
    remaining lowering; tiled streams 4-row strips."""

    @pytest.fixture(autouse=True)
    def _strips(self):
        set_runtime_tunables(tile_rows=4)
        yield
        set_runtime_tunables()

    @pytest.mark.parametrize("fusion", ["staged", "fused", "tiled"])
    @pytest.mark.parametrize("kind", ODD_KINDS)
    def test_multiply(self, rng, tmp_path, kind, fusion):
        A, B = _odd_operands(kind, rng, tmp_path)
        A64, B64 = _float64(A), _float64(B)
        C = multiply(A, B, algorithm="strassen", levels=1, fusion=fusion)
        rep = last_report()
        assert (rep.fusion, rep.core_path) == (fusion, "graph")
        assert type(C) is np.ndarray and C.dtype == np.float64
        assert C.shape == (SHAPE[0], SHAPE[2])
        assert np.abs(C - A64 @ B64).max() <= _stability_bound(A64, B64)

    @pytest.mark.parametrize("fusion", ["staged", "fused", "tiled"])
    @pytest.mark.parametrize("kind", ODD_KINDS)
    def test_multiply_batched(self, rng, tmp_path, kind, fusion):
        A, B = _odd_operands(kind, rng, tmp_path)
        A3 = np.stack([np.asarray(A)] * 3)
        A64, B64 = _float64(A), _float64(B)
        C = multiply_batched(A3, B, algorithm="strassen", levels=1,
                             fusion=fusion)
        rep = last_report()
        assert (rep.fusion, rep.core_path, rep.batch) == (fusion, "graph", 3)
        assert C.dtype == np.float64 and C.shape == (3, SHAPE[0], SHAPE[2])
        bound = _stability_bound(A64, B64)
        for Ci in C:
            assert np.abs(Ci - A64 @ B64).max() <= bound

    @pytest.mark.parametrize("fusion", ["staged", "fused", "tiled"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c_kind", ["f_order", "strided", "reversed",
                                        "other_dtype"])
    def test_callers_c(self, rng, c_kind, dtype, fusion):
        m, k, n = SHAPE
        A = rng.standard_normal((m, k)).astype(dtype)
        B = rng.standard_normal((k, n)).astype(dtype)
        big = rng.standard_normal((m, 2 * n)).astype(dtype)
        if c_kind == "f_order":
            C = np.asfortranarray(big[:, :n])
        elif c_kind == "strided":
            C = big[:, ::2]
        elif c_kind == "reversed":  # negative row stride
            C = big[::-1, :n]
        else:
            other = np.float64 if dtype == np.float32 else np.float32
            C = np.ascontiguousarray(big[:, :n], dtype=other)
        big0, C0 = big.copy(), np.array(C, dtype=np.float64)
        out = multiply(A, B, C, algorithm="strassen", levels=1,
                       fusion=fusion)
        assert last_report().fusion == fusion
        assert out is C
        if c_kind == "strided":
            np.testing.assert_array_equal(big[:, 1::2], big0[:, 1::2])
        elif c_kind == "reversed":
            np.testing.assert_array_equal(big[:, n:], big0[:, n:])
        else:
            np.testing.assert_array_equal(big, big0)
        A64, B64 = _float64(A), _float64(B)
        want = C0 + A64 @ B64
        err = np.abs(_float64(C) - want).max()
        if dtype == np.float64 and C.dtype == np.float64:
            assert err <= _stability_bound(A64, B64)
        else:  # the ledger's float32 tolerance, relative to the result
            assert err <= 1e-4 * np.abs(want).max()


class TestChecksOnAWarmMemo:
    @pytest.mark.parametrize("batched", [False, True])
    def test_complex_operand(self, rng, batched):
        call = multiply_batched if batched else multiply
        lead = (2,) if batched else ()
        A = rng.standard_normal(lead + (16, 16))
        for _ in range(2):
            call(A, A, engine="auto")
        before = _executions()
        with pytest.raises(TypeError, match="complex128"):
            call(A + 1j * A, A, engine="auto")
        with pytest.raises(TypeError, match="complex128"):
            call(A, A.astype(np.complex128), engine="auto")
        assert _executions() == before

    @pytest.mark.parametrize("batched", [False, True])
    def test_integer_c(self, rng, batched):
        call = multiply_batched if batched else multiply
        lead = (2,) if batched else ()
        A = rng.standard_normal(lead + (16, 16))
        for _ in range(2):
            call(A, A, np.zeros(lead + (16, 16)), engine="auto")
        C = np.zeros(lead + (16, 16), dtype=np.int64)
        before = _executions()
        with pytest.raises(TypeError, match="int64"):
            call(A, A, C, engine="auto")
        assert _executions() == before
        assert not C.any()


def _non_finite_operands(rng, bad):
    A = rng.standard_normal((64, 64))
    B = rng.standard_normal((64, 64))
    A[5, 7] = bad
    return A, B


class TestNonFinite:
    """Non-finite operands: the documented spread, and no warning from
    inside the library (``A @ B`` emits none either)."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_blas_route_matches_matmul(self, rng, bad):
        A, B = _non_finite_operands(rng, bad)
        want = A @ B
        for _ in range(2):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                C = multiply(A, B, engine="auto", tune="off")
            assert last_report().core_path == "blas"
            assert np.array_equal(np.isnan(C), np.isnan(want))
            assert np.array_equal(np.isposinf(C), np.isposinf(want))
            assert np.array_equal(np.isneginf(C), np.isneginf(want))
            assert np.array_equal(C, want, equal_nan=True)

    @pytest.mark.parametrize("levels,spread", [(1, 128), (2, 256)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_fmm_spreads_them(self, rng, bad, levels, spread):
        A, B = _non_finite_operands(rng, bad)
        want_bad = ~np.isfinite(A @ B)
        assert want_bad.sum() == 64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            C = multiply(A, B, algorithm="strassen", levels=levels)
        got_bad = ~np.isfinite(C)
        assert got_bad[want_bad].all()
        # The counts the multiply docstring states; an Inf comes out NaN.
        assert got_bad.sum() == spread
        assert np.isnan(C[got_bad]).all()
