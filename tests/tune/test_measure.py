"""The timing harness: sampling discipline, GC pinning, budgets."""

import gc

import numpy as np
import pytest

from repro.tune.measure import MeasureConfig, measure_candidate, measure_plan


class TestMeasureCandidate:
    def test_basic_measurement(self):
        meas = measure_candidate(
            64, 64, 64, "strassen",
            config=MeasureConfig(warmup=1, repeats=3, inner=2),
        )
        assert meas.shape == (64, 64, 64)
        assert meas.label.endswith("/abc")
        assert meas.engine == "direct"
        assert meas.dtype == "float64"
        assert 0 < meas.best_s <= meas.time_s
        assert meas.samples == 3 * 2
        assert len(meas.group_minima) == 3
        assert meas.gflops > 0

    def test_median_of_min(self):
        meas = measure_candidate(
            32, 32, 32, "strassen",
            config=MeasureConfig(repeats=5, inner=3),
        )
        import statistics

        assert meas.time_s == statistics.median(meas.group_minima)
        assert meas.best_s == min(meas.group_minima)

    def test_classical_baseline_measurable(self):
        meas = measure_candidate(48, 48, 48, "classical")
        assert meas.time_s > 0

    def test_classical_baseline_measures_the_blas_route(self):
        # Wisdom verdicts must time what dispatch runs: a classical pick
        # executes as one BLAS call, so its finalist must too — timing the
        # interpreted plan would charge the baseline runtime overhead that
        # dispatch no longer pays.
        from repro.core.runtime import last_report

        measure_candidate(48, 48, 48, "classical")
        rep = last_report()
        assert rep.core_path == "blas"
        assert rep.backend == "reference"

    def test_float32(self):
        meas = measure_candidate(32, 32, 32, "strassen", dtype=np.float32)
        assert meas.dtype == "float32"

    def test_blocked_engine(self):
        meas = measure_candidate(
            16, 16, 16, "strassen", engine="blocked",
            config=MeasureConfig(warmup=0, repeats=1, inner=1),
        )
        assert meas.engine == "blocked" and meas.samples == 1

    def test_unknown_engine_raises(self):
        with pytest.raises(ValueError, match="engine"):
            measure_candidate(16, 16, 16, "strassen", engine="warp")

    def test_hybrid_spec(self):
        meas = measure_candidate(
            36, 24, 36, "strassen+<3,2,3>",
            config=MeasureConfig(warmup=0, repeats=1, inner=1),
        )
        assert meas.time_s > 0


class TestBudget:
    def test_budget_caps_samples(self):
        # A budget far below one call's cost still takes >= 1 sample and
        # stops immediately after.
        meas = measure_candidate(
            128, 128, 128, "strassen",
            config=MeasureConfig(warmup=0, repeats=50, inner=50,
                                 budget_s=1e-4),
        )
        assert 1 <= meas.samples < 50 * 50
        assert len(meas.group_minima) >= 1

    def test_no_budget_takes_all_samples(self):
        meas = measure_candidate(
            16, 16, 16, "strassen",
            config=MeasureConfig(warmup=0, repeats=2, inner=2),
        )
        assert meas.samples == 4


class TestGCPinning:
    def test_gc_restored_when_enabled(self):
        assert gc.isenabled()
        measure_candidate(16, 16, 16, "strassen",
                          config=MeasureConfig(repeats=1, inner=1))
        assert gc.isenabled()

    def test_gc_left_alone_when_disabled(self):
        gc.disable()
        try:
            measure_candidate(16, 16, 16, "strassen",
                              config=MeasureConfig(repeats=1, inner=1))
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_gc_restored_on_failure(self):
        from repro.core import compile as plancache

        cplan = plancache.compile((16, 16, 16), "strassen")
        assert gc.isenabled()
        with pytest.raises(ValueError):
            measure_plan(cplan, engine="nope")
        assert gc.isenabled()


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        {"warmup": -1}, {"repeats": 0}, {"inner": 0}, {"budget_s": 0.0},
        {"budget_s": -1.0},
    ])
    def test_bad_config_raises(self, kw):
        with pytest.raises(ValueError):
            MeasureConfig(**kw)
