"""Budgeted tuning loops and the machine-model back-fit."""

import numpy as np
import pytest

from repro.tune.measure import MeasureConfig
from repro.tune.tuner import (
    calibrate_machine,
    fit_machine_params,
    tune_problem,
    tune_sweep,
)

FAST = MeasureConfig(warmup=0, repeats=1, inner=1)


class TestTuneProblem:
    def test_records_winner_in_store(self, store):
        rep = tune_problem(64, 64, 64, store=store, top=2, budget_s=1.0,
                           measure_config=FAST)
        assert rep.problem == (64, 64, 64)
        assert rep.bucket is not None
        assert len(store) == 1
        assert store.lookup_tuple(64, 64, 64) == rep.config

    def test_measures_model_top_plus_classical(self, store):
        rep = tune_problem(64, 64, 64, store=store, top=2, budget_s=1.0,
                           measure_config=FAST)
        # top-2 + GEMM baseline
        assert len(rep.measurements) == 3
        labels = {m.label for m in rep.measurements}
        assert any("classical" in lab for lab in labels)

    def test_winner_is_fastest_measured(self, store):
        rep = tune_problem(64, 64, 64, store=store, top=3, budget_s=1.0,
                           measure_config=FAST)
        assert rep.winner.time_s == min(m.time_s for m in rep.measurements)

    def test_record_false_leaves_store_empty(self, store):
        rep = tune_problem(64, 64, 64, store=store, record=False,
                           budget_s=1.0, measure_config=FAST)
        assert rep.bucket is None and len(store) == 0

    def test_budget_respected_loosely(self, store):
        # Generous slack: the budget bounds sampling, not compile time.
        rep = tune_problem(96, 96, 96, store=store, top=2, budget_s=0.3,
                           measure_config=MeasureConfig(repeats=100, inner=100))
        assert rep.elapsed_s < 5.0

    def test_explicit_threads_scope_bucket(self, store):
        """One bucket per shape class and dtype: the verdict carries no
        thread count."""
        rep = tune_problem(64, 64, 64, store=store, budget_s=1.0,
                           measure_config=FAST)
        cfg = store.lookup(64, 64, 64)
        assert cfg is not None and "threads" not in cfg
        assert rep.bucket == "s6|r0,0|float64"

    def test_bad_threads_fail_before_measuring(self, store):
        """Tuning measures the one-worker runtime; it takes no thread
        count."""
        with pytest.raises(TypeError, match="threads"):
            tune_problem(64, 64, 64, store=store, threads=2, budget_s=1.0)
        assert len(store) == 0

    def test_float32(self, store):
        rep = tune_problem(64, 64, 64, store=store, dtype=np.float32,
                           budget_s=1.0, measure_config=FAST)
        assert rep.dtype == "float32"
        assert store.lookup(64, 64, 64, dtype="float32") is not None
        assert store.lookup(64, 64, 64, dtype="float64") is None

    def test_config_is_auto_config_shaped(self, store):
        rep = tune_problem(64, 64, 64, store=store, budget_s=1.0,
                           measure_config=FAST)
        algo, levels, variant, engine = rep.config
        assert engine == "direct"
        assert variant in ("naive", "ab", "abc")
        assert algo == "classical" or isinstance(algo, tuple)


class TestTuneSweep:
    def test_covers_all_problems(self, store):
        reports = tune_sweep([(64, 64, 64), (128, 128, 128)], store=store,
                             budget_s=2.0, top=1, measure_config=FAST)
        assert len(reports) == 2
        assert len(store) == 2  # distinct size bins -> distinct buckets

    def test_empty_sweep(self, store):
        assert tune_sweep([], store=store) == []


class TestMachineBackfit:
    def test_fit_machine_params(self):
        mp = fit_machine_params(10.0, 20.0, cores=2)
        assert mp.cores == 2
        assert mp.peak_gflops_per_core >= 10.0
        assert mp.bandwidth_gbs == 20.0
        assert 0 < mp.lam <= 1.0
        assert mp.name.startswith("tuned-")

    def test_fit_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_machine_params(0.0, 10.0)

    def test_calibrate_records_into_store(self, store):
        assert store.machine_params() is None
        mp = calibrate_machine(store=store, size=128)
        assert store.machine_params() == mp
        assert mp.peak_gflops_per_core > 0 and mp.bandwidth_gbs > 0

    def test_model_fallback_uses_calibrated_machine(self, default_wisdom):
        # After calibration, a wisdom-miss auto_config prices candidates
        # with the fitted machine instead of the generic default.
        from repro.core.selection import _model_config, auto_config

        calibrate_machine(store=default_wisdom, size=128)
        mp = default_wisdom.machine_params()
        _model_config.cache_clear()
        cfg = auto_config(200, 200, 200, tune="readonly")
        assert cfg[:4] == _model_config(200, 200, 200, mp, 2)
