"""Tests for model-guided selection (the poly-algorithm)."""

import numpy as np
import pytest

from repro.core.selection import (
    Candidate,
    enumerate_candidates,
    hybrid_shapes_for,
    rank_candidates,
    select,
)
from repro.model.machines import ivy_bridge_e5_2680_v2

MACH = ivy_bridge_e5_2680_v2(1)


class TestEnumerate:
    def test_counts(self):
        cands = enumerate_candidates(4800, 4800, 4800, MACH, max_levels=1)
        # 23 one-level shapes x 3 variants.
        assert len(cands) == 23 * 3

    def test_two_level_includes_hybrids(self):
        cands = enumerate_candidates(4800, 4800, 4800, MACH, max_levels=2)
        labels = {c.label for c in cands}
        assert any("+" in lab for lab in labels)
        assert "<2,2,2>+<3,3,3>/abc" in labels

    def test_too_small_problem_filters(self):
        cands = enumerate_candidates(3, 3, 3, MACH, max_levels=2)
        for c in cands:
            Mt = 1
            for s in c.shapes:
                Mt *= s[0]
            assert Mt <= 3

    def test_variants_restricted(self):
        cands = enumerate_candidates(1000, 1000, 1000, MACH, variants=("abc",))
        assert {c.variant for c in cands} == {"abc"}


class TestHybridShapesFor:
    def test_square_problem_keeps_default_set(self):
        from repro.core.selection import _DEFAULT_HYBRID_SHAPES, hybrid_shapes_for

        shapes = hybrid_shapes_for(1024, 1024, 1024)
        assert set(_DEFAULT_HYBRID_SHAPES) <= set(shapes)

    def test_skewed_problem_adds_matching_rectangular_shapes(self):
        # m = n = 3k: shapes cutting m, n harder than k must appear.
        shapes = hybrid_shapes_for(1152, 384, 1152)
        assert any(s[0] > s[1] and s[2] > s[1] for s in shapes), shapes

    def test_deterministic_and_duplicate_free(self):
        a = hybrid_shapes_for(2048, 256, 2048)
        assert a == hybrid_shapes_for(2048, 256, 2048)
        assert len(a) == len(set(a))

    def test_degenerate_dims_fall_back_to_default_set(self):
        from repro.core.selection import _DEFAULT_HYBRID_SHAPES

        assert hybrid_shapes_for(64, 0, 64) == _DEFAULT_HYBRID_SHAPES
        assert hybrid_shapes_for(0, 8, 8) == _DEFAULT_HYBRID_SHAPES

    def test_empty_operand_auto_multiply_still_works(self):
        # Regression: the aspect-ratio math must not crash the auto path
        # for empty multiplies (classical fallback handles them).
        import numpy as np

        from repro.core.executor import multiply

        C = multiply(np.ones((16, 0)), np.ones((0, 16)), engine="auto",
                     tune="off")
        assert C.shape == (16, 16) and not C.any()


class TestSkewedSelection:
    def test_auto_config_picks_non_square_schedule_on_skewed_shape(self):
        # The tentpole acceptance: the model path leaves the square family
        # when the problem's aspect ratio calls for it.
        from repro.core.selection import _model_config

        algo, levels, variant, engine = _model_config(1152, 384, 1152)
        assert algo != "classical"
        assert any(tuple(s) != (2, 2, 2) for s in algo), algo

    def test_candidate_carries_schedule_signature(self):
        cands = enumerate_candidates(4800, 4800, 4800, MACH, max_levels=2)
        labeled = {c.signature for c in cands}
        assert "<2,2,2>@2" in labeled
        assert any("," in sig for sig in labeled)  # mixed schedules present


class TestRankAndSelect:
    def test_ranking_sorted(self):
        ranked = rank_candidates(enumerate_candidates(4800, 480, 4800, MACH))
        times = [c.prediction.time for c in ranked]
        assert times == sorted(times)

    def test_select_returns_finalist(self):
        winner, ranked = select(14400, 480, 14400, MACH, top=2)
        assert isinstance(winner, Candidate)
        assert winner.label in {c.label for c in ranked[:2]}

    def test_rank_k_update_prefers_abc(self):
        # Paper §4.3: for small k the ABC variant wins (no M_r traffic).
        winner, _ = select(14400, 480, 14400, MACH)
        assert winner.variant == "abc"

    def test_large_square_prefers_ab_or_naive(self):
        # Paper §4.3: for large k the AB/Naive variants overtake ABC.
        winner, _ = select(12000, 12000, 12000, MACH)
        assert winner.variant in ("ab", "naive")

    def test_empty_problem_raises(self):
        with pytest.raises(ValueError):
            select(1, 1, 1, MACH)

    def test_measure_hook(self):
        # A custom measurement can override the model's favorite.
        calls = []

        def fake_measure(c):
            calls.append(c.label)
            return float(len(calls))  # first finalist "measures" fastest

        winner, ranked = select(4800, 4800, 4800, MACH, top=3, measure=fake_measure)
        assert len(calls) == 3
        assert winner.label == ranked[0].label

    def test_measurement_can_overturn_model_rank1(self):
        # The §4.4 point of measuring at all: fringe effects invisible to
        # the model can make the measured winner differ from its rank-1.
        def contrarian(c):
            return -c.prediction.time  # model's worst finalist "wins"

        winner, ranked = select(4800, 4800, 4800, MACH, top=3,
                                measure=contrarian)
        # The winner is the slowest-predicted finalist (mirror-schedule
        # candidates can tie exactly, so compare times, not labels).
        assert winner.prediction.time == max(
            c.prediction.time for c in ranked[:3]
        )
        assert winner.prediction.time > ranked[0].prediction.time

    def test_select_with_real_measuring_callable(self):
        # Drive selection with actual wall-clock measurements through the
        # runtime, not the simulator: best of a few GC-free timed calls.
        import gc
        import time

        from repro.core.executor import multiply

        rng = np.random.default_rng(0)
        A, B = rng.standard_normal((96, 96)), rng.standard_normal((96, 96))
        measured = []

        def real_measure(c):
            def run():
                multiply(A, B, algorithm=c.shapes, levels=c.levels,
                         variant=c.variant)

            run()  # compile the plan outside the timed calls
            best = float("inf")
            gc.disable()
            try:
                for _ in range(3):
                    t0 = time.perf_counter()
                    run()
                    best = min(best, time.perf_counter() - t0)
            finally:
                gc.enable()
            measured.append(best)
            return best

        winner, ranked = select(96, 96, 96, MACH, top=2, max_levels=1,
                                measure=real_measure)
        assert len(measured) == 2
        assert all(t > 0 for t in measured)
        # The measured winner is whichever finalist clocked fastest —
        # which may or may not be the model's rank-1.
        finalists = {c.label for c in ranked[:2]}
        assert winner.label in finalists
        # measure runs in finalist order, so measured[i] <-> ranked[i].
        assert winner.label == ranked[measured.index(min(measured))].label
