"""Auto-dispatch through the calibrated model: tune modes, restarts, degradation."""

import numpy as np
import pytest

from repro.core import selection
from repro.core.executor import multiply, multiply_batched
from repro.core.runtime import last_report
from repro.core.spec import normalize_tune
from repro.model.machines import MachineParams

#: A machine whose model sends 96^3 to Strassen: flops are all it prices.
#: The generic machine picks classical there.
FLOP_BOUND = MachineParams("flop-bound", peak_gflops_per_core=0.01,
                           bandwidth_gbs=1e5, cores=1, lam=0.5)


@pytest.fixture
def model_counters(monkeypatch):
    """Count every model-path invocation inside the selection module."""
    calls = {"enumerate_candidates": 0, "predict_fmm": 0, "predict_gemm": 0}

    def counting(name):
        real = getattr(selection, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(selection, name, counting(name))
    selection._model_config.cache_clear()
    yield calls
    selection._model_config.cache_clear()


class TestReadonly:
    def test_readonly_prices_with_the_model(self, default_wisdom,
                                            model_counters):
        rng = np.random.default_rng(0)
        A, B = rng.standard_normal((80, 80)), rng.standard_normal((80, 80))
        C = multiply(A, B, engine="auto", tune="readonly")
        assert np.allclose(C, A @ B)
        assert model_counters["enumerate_candidates"] >= 1


class TestReadonlyHotPath:
    """Readonly prices with the store's record; off never reads it."""

    @pytest.fixture
    def operands(self, rng):
        return rng.standard_normal((96, 96)), rng.standard_normal((96, 96))

    def test_tune_off_ignores_wisdom(self, default_wisdom, operands):
        A, B = operands
        default_wisdom.record_machine(FLOP_BOUND)
        C = multiply(A, B, engine="auto", tune="off")
        assert last_report().core_path == "blas"  # the generic pick
        assert np.array_equal(C, A @ B)
        C = multiply(A, B, engine="auto", tune="readonly")
        assert last_report().schedule == "<2,2,2>@1"  # the record's pick
        np.testing.assert_allclose(C, A @ B, rtol=1e-12, atol=1e-12)

    def test_batched_auto_uses_wisdom(self, default_wisdom, rng):
        A = rng.standard_normal((3, 96, 96))
        B = rng.standard_normal((96, 96))
        default_wisdom.record_machine(FLOP_BOUND)
        C = multiply_batched(A, B, engine="auto", tune="readonly")
        rep = last_report()
        assert (rep.schedule, rep.batch) == ("<2,2,2>@1", 3)
        np.testing.assert_allclose(C, np.matmul(A, B), rtol=1e-12,
                                   atol=1e-12)

    def test_explicit_threads_price_with_the_same_record(self, default_wisdom,
                                                         operands):
        # The ledger passes threads=1; it is the default call's route.
        A, B = operands
        default_wisdom.record_machine(FLOP_BOUND)
        C = multiply(A, B, engine="auto", tune="readonly", threads=1)
        assert last_report().schedule == "<2,2,2>@1"
        np.testing.assert_allclose(C, A @ B, rtol=1e-12, atol=1e-12)


class TestProcessRestart:
    def test_machine_record_survives_a_real_process_restart(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro
        from repro.model.machines import generic_laptop
        from repro.tune import WisdomStore

        path = tmp_path / "wisdom.json"
        WisdomStore(path).record_machine(generic_laptop(2))
        before = path.read_bytes()
        src_dir = str(Path(repro.__file__).parents[1])
        env = dict(os.environ, REPRO_WISDOM=str(path))
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        code = (
            "import numpy as np\n"
            "from repro.model.machines import generic_laptop\n"
            "from repro.tune import default_store\n"
            "from repro import multiply\n"
            "mp = default_store().machine_params()\n"
            "assert mp == generic_laptop(2), 'the record did not survive'\n"
            "A = np.ones((96, 96)); B = np.ones((96, 96))\n"
            "C = multiply(A, B, engine='auto', tune='readonly')\n"
            "assert np.allclose(C, A @ B)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert path.read_bytes() == before  # read, not re-measured


class TestDegradation:
    def test_corrupt_default_store_degrades_to_model(self, tmp_path):
        from repro.tune import WisdomStore, set_default_store

        path = tmp_path / "wisdom.json"
        path.write_text('{"version": 1, "entries": "trash"')
        try:
            set_default_store(WisdomStore(path))
            rng = np.random.default_rng(0)
            A, B = rng.standard_normal((64, 64)), rng.standard_normal((64, 64))
            C = multiply(A, B, engine="auto", tune="readonly")
            assert np.allclose(C, A @ B)
        finally:
            set_default_store(None)

    def test_tune_on_raises_naming_the_removal(self, default_wisdom):
        A = np.ones((8, 8))
        calls = [
            lambda: normalize_tune("on"),
            lambda: selection.auto_config(8, 8, 8, tune="on"),
            lambda: multiply(A, A, engine="auto", tune="on"),
            lambda: multiply_batched(A[None], A[None], engine="auto",
                                     tune="ON"),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="removed") as exc:
                call()
            assert "repro tune --calibrate" in str(exc.value)
        assert default_wisdom.machine_params() is None
        assert not default_wisdom.path.exists()

    @pytest.mark.parametrize("engine", ["direct", "blocked", "auto"])
    @pytest.mark.parametrize("batched", [False, True], ids=["2d", "batched"])
    def test_tune_on_raises_whatever_the_engine(self, default_wisdom, engine,
                                                batched):
        A = np.ones((2, 8, 8)) if batched else np.ones((8, 8))
        call = multiply_batched if batched else multiply
        with pytest.raises(ValueError, match="removed"):
            call(A, A, engine=engine, tune="on")
        assert default_wisdom.machine_params() is None  # nothing measured
        assert not default_wisdom.path.exists()

    @pytest.mark.parametrize("given,mode", [
        ("off", "off"), ("OFF", "off"),
        ("readonly", "readonly"), ("ReadOnly", "readonly"),
    ])
    def test_remaining_modes_normalize(self, given, mode):
        assert normalize_tune(given) == mode

    def test_bad_tune_value_raises_up_front(self):
        A = np.ones((8, 8))
        with pytest.raises(ValueError, match="tune"):
            multiply(A, A, tune="sometimes")
        with pytest.raises(ValueError, match="tune"):
            multiply_batched(A[None], A[None], tune=1)
