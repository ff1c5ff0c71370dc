"""Tests for the streaming fused-product runtime (staged vs fused lowering).

Covers the tentpole guarantees of the variant-aware pipeline:

* exactness of every write-back variant x fusion mode x 1-2 levels
  (including a pairwise mixed-schedule sweep reusing the
  ``test_schedule.py`` harness shapes);
* determinism — rerunning a plan reproduces its result bit for bit, and
  the lowerings run their phases (``phase:<kind>`` spans) in order with
  no reduce;
* the workspace high-water regression: fused peak bytes < staged peak
  bytes at two levels, with the performance model's workspace twin
  agreeing byte-for-byte with the runtime's measured peaks;
* both engines executing through the one runtime entry point
  (``execute_plan``) — no standalone loop nests anywhere;
* spec-level validation: unknown engine/variant/fusion strings raise
  ``ValueError``s that list the valid names.
"""

import itertools

import numpy as np
import pytest

from repro.core import compile as plancache
from repro.core import runtime
from repro.core.executor import BlockedEngine, DirectEngine, multiply
from repro.core.spec import (
    FUSED_AUTO_THRESHOLD,
    FUSION_MODES,
    VARIANTS,
    normalize_fusion,
    normalize_variant,
    resolve_fusion,
)
from repro.core.workspace import WorkspaceArena
from repro.obs import trace


@pytest.fixture(autouse=True)
def fresh_cache():
    plancache.plan_cache_clear()
    yield
    plancache.plan_cache_clear()


#: Representative catalog pairs for the mixed-schedule fused sweep — the
#: square/skewed corners of the ``test_schedule.py`` pairwise harness.
_PAIR_SHAPES = ((2, 2, 2), (3, 2, 3), (2, 3, 2), (3, 3, 3), (2, 5, 2))
_PAIRS = sorted(itertools.product(_PAIR_SHAPES, repeat=2))


class TestExactness:
    @pytest.mark.parametrize("fusion", ["staged", "fused"])
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("levels,shape", [(1, (34, 38, 30)), (2, (37, 41, 45))])
    def test_variant_by_fusion_exact(self, rng, fusion, variant, levels, shape):
        """Every variant x lowering mode x depth is numpy-exact (with peel)."""
        m, k, n = shape
        A = rng.standard_normal((m, k))
        B = rng.standard_normal((k, n))
        C = multiply(A, B, algorithm="strassen", levels=levels,
                     variant=variant, fusion=fusion)
        assert np.abs(C - A @ B).max() < 1e-9

    @pytest.mark.parametrize("outer,inner", _PAIRS)
    def test_pairwise_mixed_schedules_fused(self, outer, inner):
        """Fused pipeline is exact on 2-level mixed schedules with fringes."""
        rng = np.random.default_rng(hash((outer, inner)) % 2**32)
        Mt, Kt, Nt = (outer[0] * inner[0], outer[1] * inner[1],
                      outer[2] * inner[2])
        m, k, n = Mt + 1, Kt + 2, Nt + 1  # peel every side
        A = rng.standard_normal((m, k))
        B = rng.standard_normal((k, n))
        C = multiply(A, B, algorithm=[outer, inner], fusion="fused")
        assert np.allclose(C, A @ B, atol=1e-8), (outer, inner)

    @pytest.mark.parametrize("fusion", ["staged", "fused"])
    def test_float32_preserved(self, rng, fusion):
        A = rng.standard_normal((24, 24)).astype(np.float32)
        C = multiply(A, A, algorithm="strassen", fusion=fusion)
        assert C.dtype == np.float32

    @pytest.mark.parametrize("fusion", ["staged", "fused"])
    def test_batched_stack_exact(self, rng, fusion):
        cplan = plancache.compile((24, 24, 24), "strassen", fusion=fusion)
        A = rng.standard_normal((9, 24, 24))
        B = rng.standard_normal((9, 24, 24))
        C = runtime.execute_plan(cplan, A, B, np.zeros((9, 24, 24)))
        assert np.abs(C - A @ B).max() < 1e-10


class TestThreadInvariance:
    def test_same_thread_count_is_deterministic(self, rng):
        """One worker, a fixed phase order: reruns are bitwise equal."""
        cplan = plancache.compile((32, 32, 32), "strassen", fusion="fused")
        A = rng.standard_normal((32, 32))
        B = rng.standard_normal((32, 32))
        runs = [
            runtime.execute_plan(cplan, A, B, np.zeros((32, 32)))
            for _ in range(3)
        ]
        assert np.array_equal(runs[0], runs[1])
        assert np.array_equal(runs[1], runs[2])


def _phases(run) -> list[str]:
    """The ``phase:<kind>`` span names ``run()`` emits, in order."""
    trace.enable()
    trace.clear()
    try:
        run()
        names = [r.name for r in trace.drain()]
    finally:
        trace.disable()
    return [n[len("phase:"):] for n in names if n.startswith("phase:")]


class TestFusedLowering:
    def test_fused_phase_structure(self, rng):
        cplan = plancache.compile((64, 64, 64), "strassen", levels=1)
        A = rng.standard_normal((64, 64))
        kinds = _phases(lambda: runtime.execute_plan(
            cplan, A, A, np.zeros((64, 64)), fusion="fused"))
        assert kinds == ["gather_a", "gather_b", "fproduct"]

    def test_serial_fused_has_no_reduce(self, rng):
        """One worker accumulates straight into C: no lowering reduces."""
        cplan = plancache.compile((64, 64, 64), "strassen", levels=1)
        A = rng.standard_normal((64, 64))
        for fusion in ("staged", "fused", "tiled"):
            kinds = _phases(lambda: runtime.execute_plan(
                cplan, A, A, np.zeros((64, 64)), fusion=fusion))
            assert "reduce" not in kinds, fusion

    def test_ungathered_fused_skips_gather_phase(self, rng):
        """A leaf that packs its own operands (BLIS) streams straight
        from the block views."""
        A = rng.standard_normal((64, 64))
        eng = BlockedEngine()
        kinds = _phases(lambda: eng.multiply(
            A, A, np.zeros((64, 64)),
            plancache.compile((64, 64, 64), "strassen").ml))
        assert kinds == ["fproduct"]

    def test_fproduct_tasks_cover_all_products_once(self, rng):
        """The fused phase hands every product step to the leaf once."""
        seen = []

        class RecordingLeaf(runtime.NumpyProductLeaf):
            def product(self, step, *args):
                seen.append(step)
                super().product(step, *args)

        cplan = plancache.compile((96, 96, 96), "strassen", levels=2)
        A = rng.standard_normal((96, 96))
        runtime.execute_plan(cplan, A, A, np.zeros((96, 96)),
                             leaf=RecordingLeaf())
        assert [id(s) for s in seen] == [id(s) for s in cplan.steps]

    def test_auto_resolution_variant_and_size(self):
        """naive always lowers staged; ab/abc lower fused past the slab
        threshold and staged below it."""
        assert resolve_fusion("auto", "naive", 10 * FUSED_AUTO_THRESHOLD) == "staged"
        assert resolve_fusion("auto", "abc", FUSED_AUTO_THRESHOLD + 1) == "fused"
        assert resolve_fusion("auto", "abc", FUSED_AUTO_THRESHOLD - 1) == "staged"
        assert resolve_fusion("staged", "abc", 10**12) == "staged"
        assert resolve_fusion("fused", "naive", 0) == "fused"

    def test_compiled_plan_carries_resolved_fusion(self):
        small = plancache.compile((64, 64, 64), "strassen", levels=2)
        assert small.fusion == "staged"  # tiny slabs: auto stays staged
        big = plancache.compile((1024, 1024, 1024), "strassen", levels=2)
        assert big.fusion == "fused"  # slabs past the threshold
        naive = plancache.compile((1024, 1024, 1024), "strassen", levels=2,
                                  variant="naive")
        assert naive.fusion == "staged"  # naive *means* materialize

    def test_candidate_fusion_matches_compiled_plan(self):
        """Candidate.fusion uses the compiler's own resolution rule, so
        selection labels never contradict what compile() runs."""
        from repro.core.selection import enumerate_candidates
        from repro.model.machines import generic_laptop

        for m in (96, 2048):
            for cand in enumerate_candidates(m, m, m, generic_laptop(),
                                             max_levels=2)[:12]:
                cplan = plancache.compile(
                    (m, m, m), cand.shapes, variant=cand.variant
                )
                assert cand.fusion == cplan.fusion, (m, cand.label)

    def test_fusion_modes_are_distinct_cache_entries(self):
        a = plancache.compile((32, 32, 32), "strassen", fusion="staged")
        b = plancache.compile((32, 32, 32), "strassen", fusion="fused")
        assert a is not b
        assert a.fusion == "staged" and b.fusion == "fused"

    def test_auto_and_resolved_twin_share_one_cache_entry(self):
        """fusion='auto' and its resolved explicit spelling dedupe to one
        CompiledPlan, in either compile order."""
        auto = plancache.compile((48, 48, 48), "strassen")  # resolves staged
        assert plancache.compile((48, 48, 48), "strassen",
                                 fusion="staged") is auto
        assert plancache.plan_cache_info().currsize == 1
        explicit = plancache.compile((64, 64, 64), "strassen", fusion="staged")
        assert plancache.compile((64, 64, 64), "strassen") is explicit
        assert plancache.plan_cache_info().currsize == 2


class TestWorkspaceHighWater:
    def test_fused_peak_below_staged_at_two_levels(self, rng):
        """The memory claim, in-process: at 2 levels the fused pipeline's
        measured peak workspace is strictly below the staged pipeline's."""
        arena = WorkspaceArena()
        shape = (256, 256, 256)
        A = rng.standard_normal(shape[:2])
        B = rng.standard_normal(shape[1:])
        peaks = {}
        for fusion in ("staged", "fused"):
            cplan = plancache.compile(shape, "strassen", levels=2, fusion=fusion)
            runtime.execute_plan(cplan, A, B, np.zeros((shape[0], shape[2])),
                                 arena=arena)
            peaks[fusion] = runtime.last_report().peak_workspace_bytes
        assert 0 < peaks["fused"] < peaks["staged"]

    @pytest.mark.parametrize("fusion,threads", [("staged", 1), ("fused", 1)])
    def test_model_and_runtime_agree_on_peak_bytes(self, rng, fusion, threads):
        """perfmodel.predict_workspace_bytes is the runtime's exact twin."""
        from repro.core.spec import resolve_levels
        from repro.model.perfmodel import predict_workspace_bytes

        m = k = n = 192
        ml = resolve_levels("strassen", 2)
        cplan = plancache.compile((m, k, n), "strassen", levels=2, fusion=fusion)
        A = rng.standard_normal((m, k))
        B = rng.standard_normal((k, n))
        runtime.execute_plan(cplan, A, B, np.zeros((m, n)), threads=threads)
        measured = runtime.last_report().peak_workspace_bytes
        predicted = predict_workspace_bytes(m, k, n, ml, fusion)
        assert measured == predicted

    def test_fusion_savings_priced_and_guarded(self):
        """predict_fusion_savings scales with the removed slab traffic and
        is zero when no core exists (like predict_workspace_bytes)."""
        from repro.core.spec import resolve_levels
        from repro.model.machines import generic_laptop
        from repro.model.perfmodel import (
            predict_fusion_savings,
            predict_workspace_bytes,
        )

        ml = resolve_levels("strassen", 2)
        machine = generic_laptop()
        small = predict_fusion_savings(256, 256, 256, ml, machine)
        large = predict_fusion_savings(1024, 1024, 1024, ml, machine)
        assert 0 < small < large
        # 4x the linear dims -> 16x the per-slab elements removed.
        assert large == pytest.approx(16 * small)
        # 2-level strassen partitions 4x4x4; a 2^3 problem has no core.
        assert predict_fusion_savings(2, 2, 2, ml, machine) == 0.0
        assert predict_workspace_bytes(2, 2, 2, ml, "staged") == 0

    def test_report_published_for_every_execution(self, rng):
        cplan = plancache.compile((16, 16, 16), "strassen")
        A = rng.standard_normal((16, 16))
        runtime.execute_plan(cplan, A, A, np.zeros((16, 16)))
        rep = runtime.last_report()
        assert rep.shape == (16, 16, 16)
        assert rep.core_path == "graph"
        assert rep.peak_workspace_bytes > 0
        assert rep.fusion in ("staged", "fused")


class TestSharedRuntimeEntryPoint:
    def test_both_engines_execute_through_execute_plan(self, rng, monkeypatch):
        """Acceptance: direct and blocked both run the runtime's lowered
        phases — their execute() funnels into the one runtime entry."""
        calls = []
        real = runtime.execute_plan

        def spy(cplan, A, B, C, *args, **kwargs):
            calls.append(kwargs.get("leaf"))
            return real(cplan, A, B, C, *args, **kwargs)

        monkeypatch.setattr(runtime, "execute_plan", spy)
        A = rng.standard_normal((32, 32))
        cplan = plancache.compile((32, 32, 32), "strassen")
        DirectEngine().execute(cplan, A, A, np.zeros((32, 32)))
        BlockedEngine().execute(cplan, A, A, np.zeros((32, 32)))
        assert len(calls) == 2
        from repro.core.variants import BlisProductLeaf

        assert calls[0] is None  # direct: the default NumPy leaf
        assert isinstance(calls[1], BlisProductLeaf)

    def test_blocked_engine_runs_on_the_task_graph(self, rng):
        eng = BlockedEngine(variant="ab", threads=2)
        A = rng.standard_normal((64, 64))
        eng.multiply(A, A, np.zeros((64, 64)),
                     plancache.compile((64, 64, 64), "strassen").ml)
        assert eng.last_report is not None
        assert eng.last_report.core_path == "graph"
        assert eng.last_report.fusion == "fused"  # packed leaves always stream


class TestValidationListings:
    def test_unknown_engine_lists_engines(self, rng):
        A = rng.standard_normal((4, 4))
        with pytest.raises(ValueError, match="direct.*blocked.*auto"):
            multiply(A, A, engine="gpu")

    def test_unknown_variant_lists_variants(self, rng):
        A = rng.standard_normal((4, 4))
        with pytest.raises(ValueError, match="naive.*ab.*abc"):
            multiply(A, A, variant="fast")

    def test_unknown_fusion_lists_modes(self, rng):
        A = rng.standard_normal((4, 4))
        with pytest.raises(ValueError, match="auto.*staged.*fused"):
            multiply(A, A, fusion="zap")

    def test_normalizers_accept_case_insensitive(self):
        assert normalize_variant("ABC") == "abc"
        assert normalize_fusion("Fused") == "fused"
        assert set(FUSION_MODES) == {"auto", "staged", "fused", "tiled"}

    @pytest.mark.parametrize("bad", [None, 3, b"abc"])
    def test_non_string_variant_rejected(self, bad):
        with pytest.raises(ValueError):
            normalize_variant(bad)

    def test_lower_plan_rejects_auto(self, rng):
        """Lowering takes a resolved mode; ``"auto"`` resolves at compile
        time, so the runtime refuses it."""
        cplan = plancache.compile((8, 8, 8), "strassen")
        A = rng.standard_normal((8, 8))
        with pytest.raises(ValueError, match="staged.*fused"):
            runtime.execute_plan(cplan, A, A, np.zeros((8, 8)), fusion="auto")

    def test_execute_plan_rejects_bad_fusion(self, rng):
        cplan = plancache.compile((8, 8, 8), "strassen")
        A = rng.standard_normal((8, 8))
        with pytest.raises(ValueError, match="staged.*fused"):
            runtime.execute_plan(cplan, A, A, np.zeros((8, 8)), fusion="zap")


class TestCustomLeaf:
    def test_custom_leaf_streams_through_generic_pipeline(self, rng):
        """Any custom leaf runs the ungathered per-product pipeline (the
        generic leaf protocol the BLIS substrate uses), so its kernel is
        always honored — never silently bypassed by the grouped
        shortcut the built-in NumPy leaf takes."""

        class CountingLeaf(runtime.NumpyProductLeaf):
            supports_batch = False

            def __init__(self):
                self.products = 0

            def product(self, step, Av, Bv, Ct, S, T, M):
                self.products += 1
                super().product(step, Av, Bv, Ct, S, T, M)

        leaf = CountingLeaf()
        cplan = plancache.compile((32, 32, 32), "strassen", levels=2)
        A = rng.standard_normal((32, 32))
        B = rng.standard_normal((32, 32))
        C = runtime.execute_plan(cplan, A, B, np.zeros((32, 32)), leaf=leaf)
        assert np.abs(C - A @ B).max() < 1e-10
        assert leaf.products == cplan.rank_total == 49
        assert runtime.last_report().fusion == "fused"
