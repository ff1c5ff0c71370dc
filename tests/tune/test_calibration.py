"""First-miss calibration: auto prices with this host's machine model."""

import logging
import sys
import threading

import numpy as np
import pytest

from repro.core import selection
from repro.core.executor import multiply
from repro.tune import MeasureConfig, WisdomStore, set_default_store
from repro.tune import tuner

FAST = MeasureConfig(warmup=0, repeats=1, inner=1)


@pytest.fixture
def probes(monkeypatch):
    """Record each calibration's probe call; the fake returns fixed timings.

    The short sleep releases the GIL inside the probe, the window in
    which concurrent first misses would all start calibrating.
    """
    calls = []

    def fake_time_matmuls(shapes, rounds=10):
        calls.append(tuple(shapes))
        threading.Event().wait(0.002)
        return [1e-3] * len(shapes)

    monkeypatch.setattr(tuner, "_time_matmuls", fake_time_matmuls)
    selection._model_config.cache_clear()
    yield calls
    selection._model_config.cache_clear()


@pytest.fixture
def operands():
    rng = np.random.default_rng(0)
    return rng.standard_normal((80, 72)), rng.standard_normal((72, 88))


class TestFirstMiss:
    def test_first_miss_records_machine_once(self, default_wisdom, probes,
                                             operands):
        A, B = operands
        assert default_wisdom.machine_params() is None
        C = multiply(A, B, engine="auto")
        assert np.allclose(C, A @ B)
        assert len(probes) == 1
        recorded = default_wisdom.machine_params()
        assert recorded is not None and recorded.name.startswith("tuned-")
        multiply(A, B, engine="auto")
        # Later misses price with the recorded machine, not a new probe.
        assert selection.auto_config(300, 200, 100) == (
            selection._model_config(300, 200, 100, recorded, 2))
        assert len(probes) == 1
        # A fresh store on the same path reads the record from disk.
        reborn = WisdomStore(default_wisdom.path)
        assert reborn.machine_params() == recorded
        assert tuner.resolve_machine(reborn) == recorded
        assert len(probes) == 1

    def test_tuner_resolves_through_the_same_record(self, default_wisdom,
                                                    probes):
        for size in (32, 48):
            tuner.tune_problem(size, size, size, store=default_wisdom,
                               top=1, budget_s=0.2, measure_config=FAST)
        assert len(probes) == 1
        assert default_wisdom.machine_params() is not None

    def test_cli_tune_calibrates_once_and_recalibrates_on_request(
            self, tmp_path, probes):
        from repro.cli import main

        args = ["tune", "-m", "32", "-k", "32", "-n", "32", "--budget",
                "200ms", "--top", "1", "--store", str(tmp_path / "w.json")]
        assert main(args) == 0
        assert main(args) == 0
        assert len(probes) == 1
        assert main(args + ["--calibrate"]) == 0
        assert len(probes) == 2
        assert main(args + ["--no-calibrate"]) == 0
        assert len(probes) == 2

    def test_concurrent_first_misses_calibrate_once(self, default_wisdom,
                                                    probes, operands):
        A, B = operands
        start = threading.Barrier(8)
        results, errors = [], []

        def worker():
            try:
                start.wait(timeout=10)
                results.append(multiply(A, B, engine="auto"))
            except Exception as exc:  # surfaced by the asserts below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pool = [threading.Thread(target=worker) for _ in range(8)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in pool)
        assert errors == []
        assert len(results) == 8
        assert all(np.allclose(C, A @ B) for C in results)
        assert len(probes) == 1


class TestNeverFailsDispatch:
    def test_unwritable_store_keeps_machine_in_memory(self, tmp_path, probes,
                                                      operands, caplog,
                                                      monkeypatch):
        # The store's parent path is a regular file: nothing can be
        # written under it, yet auto must still return the product.
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        monkeypatch.setenv("REPRO_WISDOM", str(blocker / "wisdom.json"))
        set_default_store(None)
        A, B = operands
        try:
            with caplog.at_level(logging.WARNING, logger="repro.tune.wisdom"):
                C = multiply(A, B, engine="auto")
                C2 = multiply(A, B, engine="auto")
        finally:
            set_default_store(None)
        assert np.allclose(C, A @ B) and np.allclose(C2, A @ B)
        assert len(probes) == 1  # kept in memory, not re-probed
        warned = [r for r in caplog.records
                  if r.name == "repro.tune.wisdom"
                  and r.levelno == logging.WARNING]
        assert len(warned) == 1
        assert "calibrated machine" in warned[0].getMessage()


class TestNoProbe:
    def test_tune_off_never_touches_the_store(self, default_wisdom, probes,
                                              operands):
        A, B = operands
        C = multiply(A, B, engine="auto", tune="off")
        assert np.allclose(C, A @ B)
        selection.auto_config(1536, 1536, 1536, tune="off")
        assert probes == []
        assert default_wisdom.machine_params() is None
        assert not default_wisdom.path.exists()

    def test_wisdom_hit_never_calibrates(self, tmp_path, probes, operands):
        # A hit is answered from the file alone; the store is not rewritten.
        path = tmp_path / "wisdom.json"
        WisdomStore(path).record(
            80, 72, 88,
            config={"algorithm": [[2, 2, 2]], "levels": 1, "variant": "abc",
                    "engine": "direct", "threads": 1},
            gflops=10.0, time_s=1e-3, samples=3,
        )
        before = path.read_bytes()
        store = WisdomStore(path)
        set_default_store(store)
        A, B = operands
        try:
            C = multiply(A, B, engine="auto")
        finally:
            set_default_store(None)
        assert np.allclose(C, A @ B)
        assert probes == []
        assert store.machine_params() is None
        assert path.read_bytes() == before

    def test_explicit_machine_skips_calibration(self, default_wisdom, probes):
        from repro.model.machines import generic_laptop

        selection.auto_config(200, 200, 200, machine=generic_laptop())
        assert probes == []
        assert default_wisdom.machine_params() is None
