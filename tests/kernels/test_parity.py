"""Leaf parity: the reference backend against the interpreter and the oracle.

The reference backend *is* the interpreter, so an explicit
``backend="reference"`` run is bitwise equal to the default run, and both
agree with the float64 classical product to a dtype-appropriate
tolerance.  The schedule matrix covers square, rectangular and mixed
per-level schedules, a fringe-peeling shape and a non-unit-C-coefficient
algorithm, under both lowerings, every variant and both dtypes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import compile as plancache
from repro.core.runtime import execute_plan, last_report

#: (label, shape, algorithm-spec, levels) — square, rectangular, mixed
#: per-level schedules, a fringe-peeling shape, and the non-unit-C-
#: coefficient algorithm that exercises the scatter scratch strip.
SCHEDULES = [
    ("square-2lvl", (96, 96, 96), "strassen", 2),
    ("rect", (96, 64, 96), "<3,2,3>", 1),
    ("mixed", (96, 64, 96), "<3,2,3>@1,strassen@1", 2),
    ("fringe", (100, 100, 100), "strassen", 1),
    ("float-coeffs", (96, 96, 96), "smirnov333", 1),
]

DTYPES = [np.float64, np.float32]
VARIANTS = ["naive", "ab", "abc"]
FUSIONS = ["staged", "fused"]


def _operands(shape, dtype, batch=None, seed=7):
    m, k, n = shape
    rng = np.random.default_rng(seed)
    sa = (m, k) if batch is None else (batch, m, k)
    sb = (k, n) if batch is None else (batch, k, n)
    A = rng.standard_normal(sa).astype(dtype)
    B = rng.standard_normal(sb).astype(dtype)
    C = np.zeros(sa[:-1] + (n,), dtype=dtype)
    return A, B, C


def _run(backend, shape, spec, levels, variant, fusion, dtype, batch=None):
    cplan = plancache.compile(shape, spec, levels, variant,
                              dtype=dtype, fusion=fusion)
    A, B, C = _operands(shape, dtype, batch=batch)
    kw = {} if backend is None else {"backend": backend}
    execute_plan(cplan, A, B, C, **kw)
    return C, last_report()


def _tolerance(dtype, shape):
    # Scaled for the k-sized dot products both pipelines accumulate.
    eps = np.finfo(dtype).eps
    return 50.0 * eps * shape[1]


def _oracle(shape, dtype):
    A, B, _ = _operands(shape, dtype)
    return A.astype(np.float64) @ B.astype(np.float64)


class TestParityMatrix:
    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
    @pytest.mark.parametrize("fusion", FUSIONS)
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("label,shape,spec,levels",
                             SCHEDULES, ids=[s[0] for s in SCHEDULES])
    def test_backends_match_interpreter(self, label, shape, spec, levels,
                                        variant, fusion, dtype):
        base, base_rep = _run(None, shape, spec, levels,
                              variant, fusion, dtype)
        assert base_rep.backend == "reference"
        got, rep = _run("reference", shape, spec, levels, variant,
                        fusion, dtype)
        assert rep.backend == "reference"
        assert rep.fusion == fusion
        np.testing.assert_array_equal(got, base)
        assert got.dtype == dtype
        exact = _oracle(shape, dtype)
        scale = max(1.0, float(np.abs(exact).max()))
        err = float(np.abs(got - exact).max()) / scale
        assert err <= _tolerance(dtype, shape), (
            f"reference diverged on {label}/{variant}/{fusion}: {err}"
        )

    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
    @pytest.mark.parametrize("fusion", FUSIONS)
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("label,shape,spec,levels",
                             SCHEDULES, ids=[s[0] for s in SCHEDULES])
    def test_batched_matches_per_slice(self, label, shape, spec, levels,
                                       variant, fusion, dtype):
        # A batched stack runs every slice on the same task schedule, so
        # it equals the slice-by-slice run to rounding.
        got, rep = _run("reference", shape, spec, levels, variant, fusion,
                        dtype, batch=3)
        assert rep.backend == "reference"
        assert got.shape == (3, shape[0], shape[2])
        A, B, _ = _operands(shape, dtype, batch=3)
        cplan = plancache.compile(shape, spec, levels, variant,
                                  dtype=dtype, fusion=fusion)
        scale = max(1.0, float(np.abs(got).max()))
        for i in range(3):
            Ci = np.zeros((shape[0], shape[2]), dtype=dtype)
            execute_plan(cplan, A[i], B[i], Ci)
            err = float(np.abs(got[i] - Ci).max()) / scale
            assert err <= _tolerance(dtype, shape), (
                f"slice {i} diverged on {label}/{variant}/{fusion}: {err}"
            )

    def test_exactness_vs_matmul(self):
        # The interpreter is not just self-consistent — it is right.
        C, _ = _run("reference", (96, 96, 96), "strassen", 2,
                    "abc", "fused", np.float64)
        A, B, _ = _operands((96, 96, 96), np.float64)
        np.testing.assert_allclose(C, A @ B, atol=1e-10)


class TestOperandLayouts:
    """Call shapes the interpreter serves directly."""

    def test_threads_stay_reproducible(self):
        # One worker runs the phases in a fixed order, so reruns stay
        # bitwise equal.
        shape = (96, 96, 96)
        runs = []
        for _ in range(2):
            C, rep = _run("reference", shape, "strassen", 2,
                          "abc", "fused", np.float64)
            assert rep.backend == "reference"
            assert rep.worker_mode == "serial" and rep.threads == 1
            runs.append(C)
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_noncontiguous_operand(self):
        cplan = plancache.compile((64, 64, 64), "strassen", 1, "abc",
                                  dtype=np.float64)
        A_big, B, C = _operands((64, 128, 64), np.float64)
        A = A_big[:, ::2]  # non-contiguous view
        execute_plan(cplan, A, B[:64], C, backend="reference")
        np.testing.assert_allclose(C, A @ B[:64], atol=1e-10)

    def test_dtype_mismatch_computes_in_plan_dtype(self):
        # A float32 plan executed with float64 operands computes in the
        # plan dtype and accumulates into the float64 C.
        shape = (64, 64, 64)
        cplan = plancache.compile(shape, "strassen", 1, "abc",
                                  dtype=np.float32)
        A, B, C = _operands(shape, np.float64)
        execute_plan(cplan, A, B, C, backend="reference")
        assert last_report().backend == "reference"
        assert C.dtype == np.float64
        exact = A @ B
        err = float(np.abs(C - exact).max()) / float(np.abs(exact).max())
        assert err <= _tolerance(np.float32, shape)


class TestFloat32Scratch:
    def test_nonunit_coefficients_use_dtype_matched_scratch(self):
        # smirnov333 carries non-unit C coefficients; the fused
        # interpreter path must stay in float32 (no float64 upcast
        # round trip) and still match the float64 reference closely.
        shape = (96, 96, 96)
        cplan = plancache.compile(shape, "smirnov333", 1, "abc",
                                  dtype=np.float32, fusion="fused")
        assert cplan.has_nonunit_c_coeffs
        A, B, C = _operands(shape, np.float32)
        execute_plan(cplan, A, B, C, backend="reference")
        exact = A.astype(np.float64) @ B.astype(np.float64)
        scale = max(1.0, float(np.abs(exact).max()))
        err = float(np.abs(C - exact).max()) / scale
        assert err < 5e-4

    def test_scratch_strip_in_workspace_model(self):
        from repro.core.runtime import _grouped_workspace_spec
        from repro.core.spec import resolve_levels
        from repro.model.perfmodel import predict_workspace_bytes

        # Runtime: smirnov333 (non-unit C coefficients) checks out a
        # scratch strip; strassen (all +-1) does not.
        cplan = plancache.compile((96, 96, 96), "smirnov333", 1, "abc",
                                  fusion="fused")
        spec = _grouped_workspace_spec(cplan, (), 32, 32, 32, 8)
        assert spec["scratch"][0] == (32, 32)
        cplan_u = plancache.compile((96, 96, 96), "strassen", 1, "abc",
                                    fusion="fused")
        assert "scratch" not in _grouped_workspace_spec(
            cplan_u, (), 48, 48, 48, 8
        )
        # Model twin: the fused prediction prices exactly one extra
        # bm*bn strip for the non-unit-coefficient algorithm.
        ml = resolve_levels("smirnov333", 1)
        base = predict_workspace_bytes(96, 96, 96, ml, fusion="fused")
        W = ml.W
        assert bool(((W != 0) & (W != 1) & (W != -1)).any())
        assert base >= 32 * 32 * 8  # includes the bm * bn strip
