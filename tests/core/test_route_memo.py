"""The memoized ``engine="auto"`` route.

``multiply`` and ``multiply_batched`` resolve each auto call signature
once and keep the route until the decision generation moves.  Each
event that can change a decision has a test here showing that the next
call decides again (counted by a spy on ``selection.auto_config``) and,
where the event changes the pick, that the call follows the new pick.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core import executor, selection
from repro.core.executor import multiply, multiply_batched
from repro.core.runtime import last_report
from repro.core.spec import (
    decision_generation,
    invalidate_decisions,
    set_runtime_tunables,
)
from repro.model.machines import MachineParams, generic_laptop
from repro.tune import WisdomStore, default_store, set_default_store, tuner

#: A machine whose model sends 96^3 to Strassen: flops are all it prices.
#: The generic machine picks classical there.
FLOP_BOUND = MachineParams("flop-bound", peak_gflops_per_core=0.01,
                           bandwidth_gbs=1e5, cores=1, lam=0.5)


@pytest.fixture
def store(tmp_path):
    """The default store, priced with the generic machine."""
    s = WisdomStore(tmp_path / "wisdom.json")
    s.record_machine(generic_laptop())
    set_default_store(s)
    yield s
    set_default_store(None)


@pytest.fixture
def decisions(monkeypatch):
    """Every ``auto_config`` call the executor makes."""
    calls = []
    real = selection.auto_config

    def spy(*args, **kwargs):
        calls.append(args[:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(selection, "auto_config", spy)
    return calls


@pytest.fixture
def fake_probes(monkeypatch):
    """Calibration with fixed probe timings instead of host timing."""
    monkeypatch.setattr(tuner, "_time_matmuls",
                        lambda shapes, rounds=10: [1e-3] * len(shapes))


@pytest.fixture
def operands(rng):
    return rng.standard_normal((96, 96)), rng.standard_normal((96, 96))


def _auto(A, B, C=None, **kwargs):
    return multiply(A, B, C, engine="auto", **kwargs)


def _schedule() -> str:
    return last_report().schedule


class TestMemo:
    def test_repeat_calls_decide_once(self, store, decisions, operands):
        A, B = operands
        for _ in range(3):
            C = _auto(A, B)
            assert last_report().core_path == "blas"
            assert np.array_equal(C, A @ B)
        assert len(decisions) == 1

    def test_batched_repeat_calls_decide_once(self, store, decisions, rng):
        A = rng.standard_normal((4, 40, 30))
        B = rng.standard_normal((30, 20))
        for _ in range(3):
            C = multiply_batched(A, B, engine="auto")
            assert last_report().core_path == "blas"
            assert last_report().batch == 4
            assert np.array_equal(C, np.matmul(A, B))
        assert len(decisions) == 1

    def test_signature_parts_decide_separately(self, store, decisions,
                                               operands):
        A, B = operands
        _auto(A, B)
        _auto(A.astype(np.float32), B.astype(np.float32))
        _auto(A, B, tune="off")
        _auto(A, B, np.zeros((96, 96)))
        multiply_batched(A[None], B, engine="auto")
        assert len(decisions) == 5

    def test_fmm_route_is_memoized_too(self, store, decisions, operands):
        A, B = operands
        store.record_machine(FLOP_BOUND)
        for _ in range(2):
            C = _auto(A, B)
            assert _schedule() == "<2,2,2>@1"
            np.testing.assert_allclose(C, A @ B, rtol=1e-12, atol=1e-12)
        assert len(decisions) == 1

    def test_bounded(self, monkeypatch, store):
        monkeypatch.setattr(executor, "_ROUTE_MEMO_SIZE", 4)
        for n in range(1, 11):
            _auto(np.ones((n, 3)), np.ones((3, 2)), tune="off")
        assert len(executor._routes) <= 4

    def test_failed_checks_are_not_memoized(self, store, operands):
        A, B = operands
        for _ in range(2):
            with pytest.raises(TypeError):
                _auto(A, B, np.zeros((96, 96), dtype=np.int64))
            with pytest.raises(ValueError, match="shape"):
                _auto(A, B, np.zeros((1, 96)))

    def test_unhashable_dtype_request_fails_as_before(self, store, operands):
        for _ in range(2):
            with pytest.raises(ValueError, match="unsupported dtype"):
                _auto(*operands, dtype=[("a", "f8")])

    def test_reads_and_saves_keep_the_route(self, store, decisions,
                                            operands):
        # Only the events in TestInvalidation move the generation: after
        # a save, a read of the record and a call under the other tune
        # mode, the readonly route is still served from the memo.
        A, B = operands
        _auto(A, B)
        generation = decision_generation()
        store.save()
        store.machine_params()
        default_store()
        _auto(A, B, tune="off")
        assert decision_generation() == generation
        _auto(A, B)
        assert len(decisions) == 2  # the first call and the tune="off" one

    def test_tune_off_touches_no_store(self, tmp_path, operands):
        s = WisdomStore(tmp_path / "never.json")
        set_default_store(s)
        try:
            for _ in range(2):
                _auto(*operands, tune="off")
        finally:
            set_default_store(None)
        assert not s.path.exists()


class TestInvalidation:
    def test_load(self, store, operands):
        A, B = operands
        WisdomStore(store.path).record_machine(FLOP_BOUND)  # another process
        _auto(A, B)
        assert last_report().core_path == "blas"
        store.load()
        _auto(A, B)
        assert _schedule() == "<2,2,2>@1"

    def test_clear(self, store, decisions, fake_probes, operands):
        A, B = operands
        store.record_machine(FLOP_BOUND)
        _auto(A, B)
        assert _schedule() == "<2,2,2>@1"
        store.clear()
        _auto(A, B)  # decides again, on a fresh calibration
        assert len(decisions) == 2
        assert store.machine_params().name.startswith("tuned-")

    def test_record_machine(self, store, operands):
        A, B = operands
        _auto(A, B)
        assert last_report().core_path == "blas"
        store.record_machine(FLOP_BOUND)
        _auto(A, B)
        assert _schedule() == "<2,2,2>@1"

    def test_first_call_calibration(self, tmp_path, decisions, fake_probes,
                                    operands):
        s = WisdomStore(tmp_path / "wisdom.json")
        set_default_store(s)
        try:
            for _ in range(3):
                _auto(*operands)
            assert s.machine_params() is not None  # the first call calibrated
        finally:
            set_default_store(None)
        # The calibration's record moves the generation while the first
        # call decides, so that route is not served: the second call
        # decides again, on the record, and the third is a memo hit.
        assert len(decisions) == 2

    def test_set_runtime_tunables(self, store, rng):
        A = rng.standard_normal((64, 48))
        B = rng.standard_normal((48, 40))
        _auto(A, B, np.zeros((64, 40)))
        assert last_report().core_path == "blas"
        try:
            set_runtime_tunables(mem_budget_bytes=4096)
            _auto(A, B, np.zeros((64, 40)))
            assert last_report().fusion == "tiled"
        finally:
            set_runtime_tunables()

    def test_set_default_store(self, store, tmp_path, operands):
        A, B = operands
        other = WisdomStore(tmp_path / "other.json")
        other.record_machine(FLOP_BOUND)
        _auto(A, B)
        assert last_report().core_path == "blas"
        set_default_store(other)
        _auto(A, B)
        assert _schedule() == "<2,2,2>@1"

    def test_memory_budget_for_a_callers_c(self, store, monkeypatch, rng):
        A = rng.standard_normal((64, 48))
        B = rng.standard_normal((48, 40))
        _auto(A, B, np.zeros((64, 40)))
        assert last_report().core_path == "blas"
        monkeypatch.setenv("REPRO_MEM_BUDGET", "4K")
        C = _auto(A, B, np.zeros((64, 40)))
        assert last_report().fusion == "tiled"
        np.testing.assert_allclose(C, A @ B, rtol=1e-12, atol=1e-12)

    def test_decision_racing_an_invalidation_is_not_served(
            self, store, monkeypatch, operands):
        A, B = operands
        real = selection.auto_config

        def racing(*args, **kwargs):
            out = real(*args, **kwargs)
            store.record_machine(FLOP_BOUND)  # lands while the call decides
            return out

        monkeypatch.setattr(selection, "auto_config", racing)
        _auto(A, B)
        assert last_report().core_path == "blas"
        monkeypatch.setattr(selection, "auto_config", real)
        _auto(A, B)
        assert _schedule() == "<2,2,2>@1"


class TestConcurrency:
    def test_threads_share_a_small_memo_while_it_is_invalidated(
            self, store, monkeypatch, rng):
        # More threads than cores, a memo too small for the shapes in
        # play and a short switch interval: lookups, inserts, evictions
        # and invalidations interleave as tightly as they can.
        monkeypatch.setattr(executor, "_ROUTE_MEMO_SIZE", 3)
        pairs = [(rng.standard_normal((24 + i, 16)),
                  rng.standard_normal((16, 20))) for i in range(6)]
        errors = []
        bumps = [0, 0]
        generation0 = decision_generation()

        def multiplier(seed):
            pick = np.random.default_rng(seed)
            try:
                for _ in range(300):
                    A, B = pairs[int(pick.integers(len(pairs)))]
                    if not np.array_equal(multiply(A, B, engine="auto"),
                                          A @ B):
                        errors.append("wrong product")
            except Exception as exc:  # reported below, never swallowed
                errors.append(repr(exc))

        def invalidator(slot):
            for _ in range(200):
                invalidate_decisions()
                bumps[slot] += 1

        workers = ([threading.Thread(target=multiplier, args=(i,))
                    for i in range(4)]
                   + [threading.Thread(target=invalidator, args=(i,))
                      for i in range(2)])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        assert errors == []
        assert decision_generation() == generation0 + sum(bumps) == (
            generation0 + 400)
        assert len(executor._routes) <= 3
