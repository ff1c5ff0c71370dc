"""Wisdom-driven auto-dispatch: the hot path skips the model entirely."""

import numpy as np
import pytest

from repro.core import selection
from repro.core.executor import multiply, multiply_batched


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


def _populate(store, m, k, n, **kw):
    store.record(
        m, k, n,
        config={"algorithm": [[2, 2, 2]], "levels": 1, "variant": "abc",
                "engine": "direct"},
        gflops=10.0, time_s=1e-3, samples=3, **kw,
    )


class TestReadonlyHotPath:
    def test_wisdom_hit_never_touches_model(self, default_wisdom,
                                            model_counters):
        # Acceptance: with a populated store, auto-dispatch must not call
        # enumerate_candidates / predict_fmm / predict_gemm at all.
        _populate(default_wisdom, 80, 80, 80)
        rng = np.random.default_rng(0)
        A, B = rng.standard_normal((80, 80)), rng.standard_normal((80, 80))
        C = multiply(A, B, engine="auto", tune="readonly")
        assert np.allclose(C, A @ B)
        assert model_counters == {
            "enumerate_candidates": 0, "predict_fmm": 0, "predict_gemm": 0,
        }

    def test_wisdom_miss_falls_back_to_model(self, default_wisdom,
                                             model_counters):
        rng = np.random.default_rng(0)
        A, B = rng.standard_normal((80, 80)), rng.standard_normal((80, 80))
        C = multiply(A, B, engine="auto", tune="readonly")
        assert np.allclose(C, A @ B)
        assert model_counters["enumerate_candidates"] >= 1

    def test_tune_off_ignores_wisdom(self, default_wisdom, model_counters):
        _populate(default_wisdom, 80, 80, 80)
        rng = np.random.default_rng(0)
        A, B = rng.standard_normal((80, 80)), rng.standard_normal((80, 80))
        multiply(A, B, engine="auto", tune="off")
        assert model_counters["enumerate_candidates"] >= 1

    def test_batched_auto_uses_wisdom(self, default_wisdom, model_counters):
        _populate(default_wisdom, 64, 64, 64)
        rng = np.random.default_rng(1)
        A = rng.standard_normal((3, 64, 64))
        B = rng.standard_normal((3, 64, 64))
        C = multiply_batched(A, B, engine="auto", tune="readonly")
        assert np.allclose(C, A @ B)
        assert model_counters["enumerate_candidates"] == 0

    def test_explicit_threads_bypass_wisdom_bucket(self, default_wisdom,
                                                   model_counters):
        # Buckets carry no thread class: the ledger's threads=1 request
        # is answered by the same wisdom as the default call.
        _populate(default_wisdom, 80, 80, 80)
        rng = np.random.default_rng(0)
        A, B = rng.standard_normal((80, 80)), rng.standard_normal((80, 80))
        C = multiply(A, B, engine="auto", tune="readonly", threads=1)
        assert np.allclose(C, A @ B)
        assert model_counters["enumerate_candidates"] == 0


class TestTuneOn:
    def test_miss_tunes_then_dispatches(self, default_wisdom):
        assert len(default_wisdom) == 0
        rng = np.random.default_rng(0)
        A, B = rng.standard_normal((64, 64)), rng.standard_normal((64, 64))
        C = multiply(A, B, engine="auto", tune="on")
        assert np.allclose(C, A @ B)
        assert len(default_wisdom) == 1  # the miss was tuned and recorded
        # Second call hits the freshly-written wisdom.
        assert default_wisdom.lookup(64, 64, 64) is not None
        C2 = multiply(A, B, engine="auto", tune="on")
        assert np.allclose(C2, A @ B)


class TestProcessRestart:
    def test_wisdom_survives_a_real_process_restart(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro
        from repro.tune import WisdomStore

        path = tmp_path / "wisdom.json"
        store = WisdomStore(path)
        store.record(
            96, 96, 96,
            config={"algorithm": [[2, 2, 2]], "levels": 1, "variant": "abc",
                    "engine": "direct"},
            gflops=10.0, time_s=1e-3, samples=3,
        )
        src_dir = str(Path(repro.__file__).parents[1])
        env = dict(os.environ, REPRO_WISDOM=str(path))
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        code = (
            "import sys, numpy as np\n"
            "from repro.tune import default_store\n"
            "from repro import multiply\n"
            "cfg = default_store().lookup_tuple(96, 96, 96)\n"
            "assert cfg is not None, 'wisdom did not survive the restart'\n"
            "A = np.ones((96, 96)); B = np.ones((96, 96))\n"
            "C = multiply(A, B, engine='auto', tune='readonly')\n"
            "assert np.allclose(C, A @ B)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


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

    def test_bad_tune_value_raises_up_front(self):
        A = np.ones((8, 8))
        with pytest.raises(ValueError, match="tune"):
            multiply(A, A, tune="sometimes")
        with pytest.raises(ValueError, match="tune"):
            multiply_batched(A[None], A[None], tune=1)
