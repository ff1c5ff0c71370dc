"""The BLAS route: the classical ``<1,1,1>`` schedule as one ``np.matmul``.

Every case compares the route against the *forced* runtime classical
plan — ``execute_plan`` on the compiled ``"classical"`` plan, which never
takes the route — with the same dtype and shape under
``np.array_equal``, and with the same sign bits, so zero rows pin the
signed-zero behaviour as well.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.classical import classical
from repro.core import compile as plancache
from repro.core.executor import DirectEngine, multiply, multiply_batched
from repro.core.runtime import execute_plan, last_report
from repro.core.kronecker import MultiLevelFMM
from repro.core.selection import auto_config
from repro.core.spec import Schedule
from repro.core.workspace import arena_stats
from repro.obs import reports as obs_reports
from repro.obs import trace


def _forced(A, B, C=None):
    """``C + A @ B`` through the interpreted classical plan."""
    A, B = np.asarray(A), np.asarray(B)
    dt = np.result_type(A, B)
    if dt not in plancache.SUPPORTED_DTYPES:
        dt = np.dtype(np.float64)
    if A.ndim == 3 or B.ndim == 3:
        batch = max(X.shape[0] for X in (A, B) if X.ndim == 3)
        A = np.broadcast_to(A, (batch,) + A.shape[-2:])
        B = np.broadcast_to(B, (batch,) + B.shape[-2:])
    A = np.ascontiguousarray(A, dtype=dt)
    B = np.ascontiguousarray(B, dtype=dt)
    m, k = A.shape[-2:]
    n = B.shape[-1]
    if C is None:
        C = np.zeros(A.shape[:-2] + (m, n), dtype=dt)
    execute_plan(plancache.compile((m, k, n), "classical", dtype=dt), A, B, C)
    assert last_report().core_path != "blas"
    return C


def _assert_same(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _assert_blas_report(shape, batch=1, dtype="float64"):
    rep = last_report()
    assert rep.core_path == "blas"
    assert rep.backend == "reference"
    assert rep.worker_mode == "serial" and rep.threads == 1
    assert rep.schedule == "classical@1"
    assert rep.shape == shape and rep.batch == batch
    assert rep.dtype == dtype
    assert rep.duration_s > 0.0
    return rep


def _operands(rng, m, k, n, dtype=np.float64, lead=()):
    A = rng.standard_normal(lead + (m, k)).astype(dtype)
    B = rng.standard_normal(lead + (k, n)).astype(dtype)
    # Zero rows/columns: their outputs are exact zeros whose sign the
    # route must reproduce.
    A[..., 1, :] = 0.0
    A[..., 2, :] = -0.0
    B[..., :, 3] = 0.0
    return A, B


class TestAutoPick:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_auto_classical_pick_matches_runtime(self, rng, dtype):
        assert auto_config(96, 96, 96, tune="off")[0] == "classical"
        A, B = _operands(rng, 96, 96, 96, dtype)
        C = multiply(A, B, engine="auto", tune="off")
        rep = _assert_blas_report((96, 96, 96), dtype=np.dtype(dtype).name)
        assert rep.peak_workspace_bytes == 0
        _assert_same(C, _forced(A, B))

    def test_int_operands_promote(self, rng):
        A = rng.integers(-9, 9, (40, 24))
        B = rng.integers(-9, 9, (24, 31))
        C = multiply(A, B, algorithm="classical")
        _assert_blas_report((40, 24, 31))
        _assert_same(C, _forced(A, B))
        assert np.array_equal(C, (A @ B).astype(np.float64))

    def test_recorded_machine_classical_pick(self, tmp_path, rng):
        from repro.model.machines import MachineParams
        from repro.tune import WisdomStore, set_default_store

        # The generic model sends this size to Strassen; a recorded
        # machine whose model picks classical must flip it onto the BLAS
        # route.
        assert auto_config(256, 256, 256, tune="off")[0] != "classical"
        store = WisdomStore(tmp_path / "wisdom.json")
        store.record_machine(MachineParams(
            "bandwidth-bound", peak_gflops_per_core=100.0,
            bandwidth_gbs=10.0, cores=2, lam=1.0))
        set_default_store(store)
        try:
            A, B = _operands(rng, 256, 256, 256)
            C = multiply(A, B, engine="auto", tune="readonly")
        finally:
            set_default_store(None)
        _assert_blas_report((256, 256, 256))
        _assert_same(C, _forced(A, B))


class TestShapesAndLayouts:
    @pytest.mark.parametrize("shape", [(101, 77, 53), (7, 1, 9), (1, 33, 1)])
    def test_odd_shapes(self, rng, shape):
        m, k, n = shape
        A = rng.standard_normal((m, k))
        B = rng.standard_normal((k, n))
        C = multiply(A, B, algorithm="classical")
        _assert_blas_report(shape)
        _assert_same(C, _forced(A, B))

    @pytest.mark.parametrize("a_shape,b_shape", [
        ((16, 0), (0, 16)),
        ((0, 8), (8, 5)),
        ((6, 4), (4, 0)),
    ])
    def test_empty_dims(self, a_shape, b_shape):
        A, B = np.ones(a_shape), np.ones(b_shape)
        C = multiply(A, B, engine="auto", tune="off")
        assert last_report().core_path == "blas"
        _assert_same(C, _forced(A, B))
        assert not C.any()

    def test_f_order_and_strided(self, rng):
        A = rng.standard_normal((60, 50))
        B = rng.standard_normal((50, 70))
        for a, b in [(np.asfortranarray(A), B), (A, np.asfortranarray(B)),
                     (A[::2, 1:], B[1:, ::3])]:
            C = multiply(a, b, algorithm="classical")
            assert last_report().core_path == "blas"
            _assert_same(C, _forced(a, b))

    def test_read_only_operands(self, rng):
        A, B = _operands(rng, 48, 40, 32)
        A.setflags(write=False)
        B.setflags(write=False)
        C = multiply(A, B, algorithm="classical")
        _assert_blas_report((48, 40, 32))
        _assert_same(C, _forced(A, B))

    def test_memmap_operands(self, tmp_path, rng):
        A0, B0 = _operands(rng, 64, 48, 40)
        A = np.memmap(tmp_path / "A", dtype=A0.dtype, mode="w+", shape=A0.shape)
        B = np.memmap(tmp_path / "B", dtype=B0.dtype, mode="w+", shape=B0.shape)
        A[...], B[...] = A0, B0
        C = multiply(A, B, algorithm="classical")
        _assert_blas_report((64, 48, 40))
        _assert_same(C, _forced(A0, B0))


class TestCallerC:
    def test_accumulates_into_float_c(self, rng):
        A, B = _operands(rng, 50, 30, 40)
        C0 = rng.standard_normal((50, 40))
        C = C0.copy()
        out = multiply(A, B, C, algorithm="classical")
        assert out is C
        rep = _assert_blas_report((50, 30, 40))
        # The product temporary is the route's only workspace.
        assert rep.peak_workspace_bytes == 50 * 40 * 8
        _assert_same(C, _forced(A, B, C0.copy()))

    def test_accumulates_float64_into_float32_c(self, rng):
        A, B = _operands(rng, 50, 30, 40)
        C0 = rng.standard_normal((50, 40)).astype(np.float32)
        C = multiply(A, B, C0.copy(), algorithm="classical")
        assert last_report().core_path == "blas"
        _assert_same(C, _forced(A, B, C0.copy()))

    def test_integer_c_keeps_the_runtime_path(self, rng):
        # A C the compute dtype cannot same_kind-cast into stays on the
        # runtime's dtype-preserving per-step loop.
        A = rng.integers(-5, 5, (12, 10))
        B = rng.integers(-5, 5, (10, 8))
        C = np.zeros((12, 8), dtype=np.int64)
        cplan = plancache.compile((12, 10, 8), "classical")
        DirectEngine().execute(cplan, A, B, C)
        assert last_report().core_path == "steps"
        # Both routes sign the classical schedule alike, so the report
        # history and wisdom seeding see one configuration, not two.
        assert last_report().schedule == "classical@1"
        assert C.dtype == np.int64 and np.array_equal(C, A @ B)
        # Through multiply the operands promote to float64, and multiply
        # rejects the int64 C before any work.
        with pytest.raises(TypeError):
            multiply(A, B, np.zeros((12, 8), dtype=np.int64),
                     algorithm="classical")
        assert last_report().core_path == "steps"

    def test_mis_shaped_c_raises(self, rng):
        A, B = _operands(rng, 8, 6, 4)
        with pytest.raises(ValueError, match="shape"):
            multiply(A, B, np.zeros((1, 4)), algorithm="classical")
        cplan = plancache.compile((8, 6, 4), "classical")
        with pytest.raises(ValueError, match="shape"):
            DirectEngine().execute(cplan, A, B, np.zeros((1, 4)))


class TestBatched:
    def test_batched_stack(self, rng):
        A, B = _operands(rng, 32, 24, 16, lead=(5,))
        C = multiply_batched(A, B, engine="auto", tune="off")
        rep = _assert_blas_report((32, 24, 16), batch=5)
        assert rep.peak_workspace_bytes == 0
        _assert_same(C, _forced(A, B))

    def test_broadcast_2d_operand(self, rng):
        A, B = _operands(rng, 20, 12, 18, lead=(4,))
        for a, b in [(A, B[0]), (A[0], B)]:
            C = multiply_batched(a, b, algorithm="classical")
            _assert_blas_report((20, 12, 18), batch=4)
            _assert_same(C, _forced(a, b))

    def test_batched_caller_c(self, rng):
        A, B = _operands(rng, 20, 12, 18, lead=(3,))
        C0 = rng.standard_normal((3, 20, 18))
        C = multiply_batched(A, B, C0.copy(), algorithm="classical")
        rep = _assert_blas_report((20, 12, 18), batch=3)
        assert rep.peak_workspace_bytes == 3 * 20 * 18 * 8
        _assert_same(C, _forced(A, B, C0.copy()))


class TestSpellings:
    @pytest.mark.parametrize("spec", [
        "classical@1", ["classical"], "CLASSICAL", Schedule(("classical",)),
        MultiLevelFMM([classical(1, 1, 1)]),
    ])
    def test_every_spelling_takes_the_route(self, rng, spec):
        A, B = _operands(rng, 24, 20, 16)
        cache0 = plancache.plan_cache_info()
        C = multiply(A, B, algorithm=spec)
        _assert_blas_report((24, 20, 16))
        assert plancache.plan_cache_info() == cache0
        _assert_same(C, _forced(A, B))

    def test_depth_is_stamped(self, rng):
        A, B = _operands(rng, 24, 20, 16)
        for kwargs in ({"algorithm": "classical", "levels": 2},
                       {"algorithm": "classical@2"}):
            C = multiply(A, B, **kwargs)
            rep = last_report()
            assert rep.core_path == "blas" and rep.schedule == "classical@2"
            _assert_same(C, _forced(A, B))
        cplan = plancache.compile((24, 20, 16), "classical", levels=2)
        assert cplan.is_classical and cplan.schedule_signature == "classical@2"

    def test_non_classical_specs_do_not(self, rng):
        A, B = _operands(rng, 24, 20, 16)
        for spec in ("strassen", "classical+strassen", ["strassen", "classical"]):
            multiply(A, B, algorithm=spec)
            assert last_report().core_path != "blas"
        multiply(A, B, algorithm="classical", engine="blocked")
        assert last_report().core_path != "blas"
        assert last_report().schedule == "classical@1"


class TestMemoryBudget:
    """An out-of-core lowering keeps the tiled pipeline's bounded RAM
    window rather than one full-size product temporary."""

    def test_budget_keeps_a_memmap_c_tiled(self, tmp_path, rng, monkeypatch):
        monkeypatch.setenv("REPRO_MEM_BUDGET", "4K")
        A, B = _operands(rng, 64, 48, 40)
        C = np.memmap(tmp_path / "C", dtype=np.float64, mode="w+",
                      shape=(64, 40))
        multiply(A, B, C, algorithm="classical")
        rep = last_report()
        assert rep.fusion == "tiled" and rep.core_path != "blas"
        assert rep.n_tiles > 0
        np.testing.assert_allclose(C, A @ B, rtol=1e-12, atol=1e-12)

    def test_budget_keeps_batched_and_engine_tiled(self, rng, monkeypatch):
        monkeypatch.setenv("REPRO_MEM_BUDGET", "4K")
        A, B = _operands(rng, 32, 24, 16, lead=(3,))
        C = multiply_batched(A, B, np.zeros((3, 32, 16)), algorithm="classical")
        assert last_report().fusion == "tiled"
        np.testing.assert_allclose(C, A @ B, rtol=1e-12, atol=1e-12)
        cplan = plancache.compile((32, 24, 16), "classical")
        assert cplan.fusion == "tiled"
        DirectEngine().execute(cplan, A[0], B[0], np.zeros((32, 16)))
        assert last_report().fusion == "tiled"

    def test_explicit_tiled_is_honoured(self, rng):
        A, B = _operands(rng, 40, 30, 20)
        C = multiply(A, B, algorithm="classical", fusion="tiled")
        rep = last_report()
        assert rep.fusion == "tiled" and rep.core_path != "blas"
        np.testing.assert_allclose(C, A @ B, rtol=1e-12, atol=1e-12)

    def test_within_budget_takes_the_route(self, rng, monkeypatch):
        monkeypatch.setenv("REPRO_MEM_BUDGET", "64M")
        A, B = _operands(rng, 40, 30, 20)
        multiply(A, B, np.zeros((40, 20)), algorithm="classical")
        assert last_report().core_path == "blas"

    def test_fresh_result_takes_the_route_past_the_budget(self, rng,
                                                          monkeypatch):
        # Without a caller's C every lowering allocates the full result,
        # and np.matmul allocates nothing more.
        monkeypatch.setenv("REPRO_MEM_BUDGET", "4K")
        A, B = _operands(rng, 64, 48, 40)
        C = multiply(A, B, algorithm="classical")
        assert last_report().core_path == "blas"
        _assert_same(C, _forced(A, B))


class TestBypass:
    def test_no_plan_cache_or_arena_traffic(self, rng):
        A, B = _operands(rng, 96, 96, 96)
        multiply(A, B, engine="auto", tune="off")  # warm the selection
        cache0, arena0 = plancache.plan_cache_info(), arena_stats()
        C = multiply(A, B, engine="auto", tune="off")
        rep = last_report()
        assert plancache.plan_cache_info() == cache0
        assert arena_stats() == arena0
        assert rep.core_path == "blas"
        assert obs_reports.recent(1) == [rep]
        _assert_same(C, _forced(A, B))

    def test_engine_execute_of_a_classical_plan(self, rng):
        A, B = _operands(rng, 40, 30, 20)
        cplan = plancache.compile((40, 30, 20), "classical")
        eng = DirectEngine()
        C = eng.execute(cplan, A, B, np.zeros((40, 20)))
        assert eng.last_report is last_report()
        _assert_blas_report((40, 30, 20))
        _assert_same(C, _forced(A, B))

    def test_one_blas_span(self, rng):
        A, B = _operands(rng, 32, 32, 32)
        trace.enable()
        try:
            trace.clear()
            multiply(A, B, algorithm="classical")
            records = trace.drain()
        finally:
            trace.disable()
            trace.clear()
        names = [(r.name, r.cat) for r in records if r.dur_ns]
        assert names == [("blas", "runtime")]

    @pytest.mark.parametrize("kwargs,match", [
        ({"threads": 0}, "threads"),
        ({"backend": "warp"}, "backend"),
        ({"workers": "fibers"}, "workers"),
        ({"fusion": "sideways"}, "fusion"),
        ({"variant": "xyz"}, "variant"),
        ({"levels": 0}, "levels"),
        ({"threads": 2}, "threads"),
    ])
    def test_knobs_still_validated(self, kwargs, match):
        A = np.ones((8, 8))
        with pytest.raises(ValueError, match=match):
            multiply(A, A, algorithm="classical", **kwargs)
