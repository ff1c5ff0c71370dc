"""The model's pricing inputs: exact nnz without the coefficients.

Selection ranks hundreds of candidate schedules per problem shape, and
the §4.4 model prices each one from its partition dims, rank and the
nnz of its composed ``U``/``V``/``W``.  Those come from the per-level
algorithms alone: a Kronecker product's nnz is the product of its
factors' nnz, and a catalog orientation permutes its base case's nnz
triple.  These tests hold that shortcut to the composed coefficients it
replaces: every stack, every pick and every predicted time.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.algorithms.catalog import FIG2_SHAPES, get_algorithm, shape_stats
from repro.core import selection
from repro.core.fmm import nnz
from repro.core.kronecker import MultiLevelFMM, StackStats
from repro.model.machines import MachineParams, generic_laptop
from repro.model.perfmodel import predict_fmm, predict_gemm

#: A machine whose model prices flops only, so FMM wins everywhere.
FLOP_BOUND = MachineParams("flop-bound", peak_gflops_per_core=0.01,
                           bandwidth_gbs=1e5, cores=1, lam=0.5)

#: Square, rectangular and skewed problems from 64 to 8192.
GRID = [
    (64, 64, 64), (96, 96, 96), (100, 104, 96), (256, 256, 256),
    (1024, 1024, 1024), (1152, 384, 1152), (1536, 1536, 1536),
    (4096, 1024, 256), (4096, 4096, 4096), (8192, 8192, 8192),
    (8192, 64, 8192), (64, 8192, 64), (8192, 512, 128),
]

_composed: dict = {}


def composed(stack) -> StackStats:
    """The reference: stats read off the materialized, composed U/V/W."""
    if stack not in _composed:
        ml = MultiLevelFMM([get_algorithm(s) for s in stack])
        _composed[stack] = StackStats(
            ml.dims_total, ml.rank_total,
            (nnz(ml.U), nnz(ml.V), nnz(ml.W)), ml.name)
    return _composed[stack]


def enumerated_stacks(m, k, n):
    return {c.shapes for c in selection.enumerate_candidates(
        m, k, n, generic_laptop())}


def reference_config(m, k, n, machine):
    """``_model_config`` priced from composed coefficients: the model's
    first-ranked candidate (enumeration order breaks ties, as the stable
    sort does), or classical when GEMM is predicted no slower."""
    shapes_h = selection.hybrid_shapes_for(m, k, n)
    stacks = [(s,) for s in FIG2_SHAPES]
    stacks += [(a, b) for a in shapes_h for b in shapes_h]
    best = None
    for stack in stacks:
        ref = composed(stack)
        Mt, Kt, Nt = ref.dims_total
        if m < Mt or k < Kt or n < Nt:
            continue
        for var in ("naive", "ab", "abc"):
            t = predict_fmm(m, k, n, ref, var, machine).time
            if best is None or t < best[0]:
                best = (t, stack, var)
    if best is None or best[0] >= predict_gemm(m, k, n, machine).time:
        return ("classical", 1, "abc", "direct")
    _, stack, var = best
    return (stack, len(stack), var, "direct")


class TestShapeStats:
    @pytest.mark.parametrize("shape", list(FIG2_SHAPES))
    def test_matches_the_catalog_algorithm(self, shape):
        assert shape_stats(*shape) == StackStats.of(get_algorithm(shape))

    def test_unknown_shape_raises_like_get_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            shape_stats(7, 7, 7)


class TestStackStats:
    def test_every_enumerated_stack_matches_its_composed_coefficients(self):
        stacks = set()
        for shape in GRID:
            stacks |= enumerated_stacks(*shape)
        assert any(len(s) == 2 for s in stacks)
        for stack in sorted(stacks):
            ref = composed(stack)
            ml = MultiLevelFMM([get_algorithm(s) for s in stack])
            assert ml.nnz_uvw() == ref.nnz, stack
            assert ml.stats == ref, stack
            assert selection._stack_stats(stack) == ref, stack

    def test_three_levels_compose_too(self):
        stack = ((2, 2, 2), (3, 2, 3), (2, 3, 4))
        ml = MultiLevelFMM([get_algorithm(s) for s in stack])
        assert ml.nnz_uvw() == (nnz(ml.U), nnz(ml.V), nnz(ml.W))


class TestPicksAndTimes:
    @pytest.mark.parametrize("machine", [generic_laptop(), FLOP_BOUND],
                             ids=["generic", "flop-bound"])
    def test_model_config_matches_the_composed_reference(self, machine):
        picks = []
        for m, k, n in GRID:
            pick = selection._model_config(m, k, n, machine)
            assert pick == reference_config(m, k, n, machine), (m, k, n)
            picks.append(pick[0])
        # The grid exercises both verdicts under the generic machine and
        # FMM everywhere under the flop-bound one.
        assert any(p != "classical" for p in picks)
        if machine is FLOP_BOUND:
            assert "classical" not in picks

    @pytest.mark.parametrize("machine", [generic_laptop(), FLOP_BOUND],
                             ids=["generic", "flop-bound"])
    def test_predicted_times_match_the_composed_reference(self, machine):
        for m, k, n in GRID:
            for c in selection.enumerate_candidates(m, k, n, machine):
                ref = predict_fmm(m, k, n, composed(c.shapes), c.variant,
                                  machine)
                assert c.prediction.time == ref.time, (m, k, n, c.label)
                assert c.prediction.label == ref.label

    def test_select_ranks_with_the_same_path(self):
        winner, ranked = selection.select(1024, 1024, 1024, generic_laptop())
        assert winner in ranked[:2]
        assert ranked[0].prediction.time == predict_fmm(
            1024, 1024, 1024, composed(ranked[0].shapes), ranked[0].variant,
            generic_laptop()).time


def test_a_cold_model_miss_builds_no_catalog_orientation():
    """Pricing validates the base cases, not the 133 orientations."""
    code = """
import json
import repro.core.fmm as fmm
validated = []
real = fmm.FMMAlgorithm.validate
def spy(self, tol=1e-10):
    validated.append(self.dims)
    return real(self, tol)
fmm.FMMAlgorithm.validate = spy
from repro.algorithms import catalog
from repro.core.selection import _model_config
from repro.model.machines import generic_laptop
for shape in [(64, 64, 64), (96, 96, 96), (128, 128, 128)]:
    _model_config(*shape, generic_laptop())
print(json.dumps({"validated": len(validated),
                  "entries": catalog.get_entry.cache_info().currsize}))
"""
    src = Path(__file__).resolve().parents[2] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={"PYTHONPATH": str(src), "PATH": ""})
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert got["entries"] == 0
    assert got["validated"] < len(FIG2_SHAPES) * 2
