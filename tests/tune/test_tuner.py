"""The machine-model back-fit ``engine="auto"`` prices with."""

import pytest

from repro.tune import tuner
from repro.tune.tuner import calibrate_machine, fit_machine_params


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

    def test_calibrate_without_record_leaves_the_store_empty(
            self, store, monkeypatch):
        monkeypatch.setattr(tuner, "_time_matmuls",
                            lambda shapes, rounds=10: [1e-3] * len(shapes))
        mp = calibrate_machine(store=store, size=64, record=False)
        assert mp.name.startswith("tuned-")
        assert store.machine_params() is None
        assert not store.path.exists()

    @pytest.mark.parametrize("t_stream,bandwidth", [(1e-12, 512.0),
                                                    (1e3, 1.0)],
                             ids=["cache-resident", "stalled"])
    def test_probe_bandwidth_is_clamped(self, store, monkeypatch, t_stream,
                                        bandwidth):
        # The rank-k probe's rate is kept in [1, 512] GB/s so the fit
        # stays physical whatever one noisy probe reads.
        monkeypatch.setattr(tuner, "_time_matmuls",
                            lambda shapes, rounds=10: [1e-3, t_stream])
        mp = calibrate_machine(store=store, size=64, record=False)
        assert mp.bandwidth_gbs == bandwidth

    def test_model_fallback_uses_calibrated_machine(self, default_wisdom):
        # After calibration, auto_config prices candidates with the
        # fitted machine instead of the generic default.
        from repro.core.selection import _model_config, auto_config

        calibrate_machine(store=default_wisdom, size=128)
        mp = default_wisdom.machine_params()
        _model_config.cache_clear()
        cfg = auto_config(200, 200, 200, tune="readonly")
        assert cfg[:4] == _model_config(200, 200, 200, mp, 2)
