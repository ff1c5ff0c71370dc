"""Tests for the parallel-scaling analysis (modeled and measured)."""

import pytest

from repro.core.executor import resolve_levels
from repro.core.parallel import (
    bandwidth_bound_fraction,
    measured_scaling_curve,
    parallel_efficiency,
    scaling_curve,
)
from repro.model.machines import ivy_bridge_e5_2680_v2


class TestScalingCurve:
    def test_monotone_speedup(self):
        ml = resolve_levels("strassen", 1)
        pts = scaling_curve(8192, 8192, 8192, ml, "abc", max_cores=10)
        assert len(pts) == 10
        assert pts[0].speedup == pytest.approx(1.0)
        for a, b in zip(pts, pts[1:]):
            assert b.speedup >= a.speedup * 0.999

    def test_efficiency_decays(self):
        # Bandwidth saturation at ~5 cores drops efficiency below 1.
        pts = scaling_curve(8192, 1024, 8192, None, "abc", max_cores=10)
        assert pts[-1].efficiency < 0.95
        assert pts[0].efficiency == pytest.approx(1.0)

    def test_gemm_baseline_supported(self):
        pts = scaling_curve(4096, 4096, 4096, None, "abc", max_cores=2)
        assert all(p.time > 0 for p in pts)


class TestMeasuredScaling:
    def test_measured_curve_drives_real_runtime(self):
        # Small problem, 1 and 2 threads: the probe must return wall-clock
        # points with the baseline normalized to speedup 1.0.
        pts = measured_scaling_curve(
            64, 64, 64, algorithm="strassen", levels=1,
            threads_list=(1, 2), repeats=1,
        )
        assert [p.cores for p in pts] == [1, 2]
        assert pts[0].speedup == pytest.approx(1.0)
        assert all(p.time > 0 and p.gflops > 0 for p in pts)


class TestEfficiencyAndBoundness:
    def test_parallel_efficiency_in_range(self):
        ml = resolve_levels("strassen", 1)
        e = parallel_efficiency(8192, 8192, 8192, ml, "abc", cores=10)
        assert 0.0 < e <= 1.0

    def test_rank_k_more_bandwidth_bound_than_square(self):
        # GEMM at a thin rank-k update re-reads C every k_C panel, so its
        # per-flop traffic dwarfs the near-square case.
        mach = ivy_bridge_e5_2680_v2(10)
        f_rank_k = bandwidth_bound_fraction(14400, 256, 14400, None, "abc", mach)
        f_square = bandwidth_bound_fraction(12288, 12288, 12288, None, "abc", mach)
        assert f_rank_k > f_square

    def test_more_cores_more_bandwidth_bound(self):
        ml = resolve_levels("strassen", 1)
        f1 = bandwidth_bound_fraction(
            8192, 8192, 8192, ml, "abc", ivy_bridge_e5_2680_v2(1)
        )
        f10 = bandwidth_bound_fraction(
            8192, 8192, 8192, ml, "abc", ivy_bridge_e5_2680_v2(10)
        )
        assert f10 > f1

    def test_fraction_bounds(self):
        mach = ivy_bridge_e5_2680_v2(1)
        f = bandwidth_bound_fraction(1024, 1024, 1024, None, "abc", mach)
        assert 0.0 <= f <= 1.0
