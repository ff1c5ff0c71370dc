"""Tests for the shared-memory process runtime (workers="processes")."""

from __future__ import annotations

import glob
import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.core.executor import multiply, multiply_batched
from repro.core.procpool import shutdown_process_pools
from repro.core.runtime import last_report
from repro.core.workspace import (
    SHM_PREFIX,
    shared_arena_clear,
    shared_arena_stats,
)

START_METHODS = [
    m for m in ("fork", "spawn") if m in mp.get_all_start_methods()
]


def _own_shm_names() -> set[str]:
    """This process's SHM segments: names carry the creating pid and the
    parent creates every segment, so another repro process on the same
    host cannot show up here."""
    return {
        os.path.basename(p)
        for p in glob.glob(f"/dev/shm/{SHM_PREFIX}_{os.getpid()}_*")
    }


@pytest.fixture(autouse=True)
def _clean_pools():
    yield
    shutdown_process_pools()


def _mats(m, k, n, dtype=np.float64, seed=7):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, k)).astype(dtype)
    B = rng.standard_normal((k, n)).astype(dtype)
    return A, B


class TestProcessCorrectness:
    @pytest.mark.parametrize("fusion", ["staged", "fused"])
    def test_matches_thread_runtime_bitwise(self, fusion):
        A, B = _mats(96, 96, 96)
        Ct = multiply(A, B, algorithm="strassen", threads=2,
                      workers="threads", fusion=fusion)
        Cp = multiply(A, B, algorithm="strassen", threads=2,
                      workers="processes", fusion=fusion)
        assert np.array_equal(Ct, Cp)

    def test_staged_bitwise_vs_serial(self):
        A, B = _mats(80, 80, 80)
        Cs = multiply(A, B, algorithm="strassen", threads=1, fusion="staged")
        Cp = multiply(A, B, algorithm="strassen", threads=2,
                      workers="processes", fusion="staged")
        assert np.array_equal(Cs, Cp)

    def test_accumulates_into_c(self):
        A, B = _mats(64, 64, 64)
        C0 = np.random.default_rng(1).standard_normal((64, 64))
        C = multiply(A, B, C0.copy(), algorithm="strassen", procs=2)
        assert np.allclose(C, C0 + A @ B)

    def test_float32(self):
        A, B = _mats(64, 64, 64, dtype=np.float32)
        C = multiply(A, B, algorithm="strassen", procs=2)
        assert C.dtype == np.float32
        assert np.allclose(C, A @ B, atol=1e-2)

    def test_batched(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((3, 64, 64))
        B = rng.standard_normal((3, 64, 64))
        C = multiply_batched(A, B, algorithm="strassen",
                             threads=2, workers="processes")
        assert np.allclose(C, A @ B)

    @pytest.mark.parametrize("method", START_METHODS)
    def test_start_methods(self, method, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", method)
        shutdown_process_pools()
        A, B = _mats(64, 64, 64)
        C = multiply(A, B, algorithm="strassen", procs=2)
        assert np.allclose(C, A @ B)


class TestProcessReport:
    def test_report_fields(self):
        A, B = _mats(96, 96, 96)
        multiply(A, B, algorithm="strassen", threads=2, workers="processes")
        rep = last_report()
        assert rep.worker_mode == "processes"
        assert rep.n_workers == 2
        assert rep.ipc_bytes > 0
        assert rep.backend_path == "interpreted"  # kernels are process-local

    def test_thread_mode_reports_zero_ipc(self):
        A, B = _mats(96, 96, 96)
        multiply(A, B, algorithm="strassen", threads=2, workers="threads")
        rep = last_report()
        assert rep.worker_mode == "threads"
        assert rep.ipc_bytes == 0

    def test_serial_mode(self):
        A, B = _mats(64, 64, 64)
        multiply(A, B, algorithm="strassen", threads=1, workers="processes")
        rep = last_report()
        # threads=1 executes inline regardless of the requested mode.
        assert rep.worker_mode == "serial"
        assert rep.n_workers == 1


class TestKnobs:
    def test_procs_shorthand(self):
        A, B = _mats(64, 64, 64)
        multiply(A, B, algorithm="strassen", procs=2)
        rep = last_report()
        assert rep.worker_mode == "processes"
        assert rep.threads == 2

    def test_procs_conflicts_with_thread_workers(self):
        A, B = _mats(64, 64, 64)
        with pytest.raises(ValueError, match="workers"):
            multiply(A, B, algorithm="strassen", procs=2, workers="threads")

    def test_procs_conflicts_with_other_thread_count(self):
        A, B = _mats(64, 64, 64)
        with pytest.raises(ValueError, match="threads"):
            multiply(A, B, algorithm="strassen", procs=2, threads=4)

    def test_procs_agreeing_thread_count_ok(self):
        A, B = _mats(64, 64, 64)
        C = multiply(A, B, algorithm="strassen", procs=2, threads=2)
        assert np.allclose(C, A @ B)

    def test_invalid_workers_rejected(self):
        A, B = _mats(64, 64, 64)
        with pytest.raises(ValueError, match="workers"):
            multiply(A, B, algorithm="strassen", workers="fibers")

    def test_blocked_engine_rejects_processes(self):
        A, B = _mats(64, 64, 64)
        with pytest.raises(ValueError, match="blocked"):
            multiply(A, B, algorithm="strassen", engine="blocked",
                     threads=2, workers="processes")


class TestShmHygiene:
    def test_no_leaked_segments_and_arena_recycles(self):
        shared_arena_clear()
        before = _own_shm_names()
        A, B = _mats(96, 96, 96)
        for _ in range(3):
            multiply(A, B, algorithm="strassen", procs=2)
        stats = shared_arena_stats()
        assert stats.segments >= 1
        assert stats.reuses >= 1  # second call recycled the first's slab
        shared_arena_clear()
        stats = shared_arena_stats()
        assert stats.live_names == 0
        leaked = _own_shm_names() - before
        assert leaked == set(), f"leaked shm segments: {leaked}"
