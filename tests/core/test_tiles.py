"""Tests for the Morton tile-window addressing layer (``repro.core.tiles``).

The out-of-core tiled lowering stands on three invariants pinned here:

* **Addressing**: :class:`TileMap` windows are exactly the blocks
  ``CompiledPlan.block_views`` materializes, per operand, in the same
  Morton order — the two layers share one permutation and cannot
  disagree on which bytes a block covers.
* **Strip geometry**: :func:`strip_bounds` covers the block with
  half-open strips that are never one row high (single-row GEMMs take a
  GEMV-style BLAS kernel with a different accumulation order) and never
  taller than the resolved ``tile_rows``, so window buffers always fit.
* **Resolution**: :func:`resolve_tile_rows` is the single shared
  solver — explicit tunable, else memory budget, else full block —
  gated by the measured :func:`strip_split_is_exact` probe, and
  :func:`repro.model.perfmodel.predict_tile_window_bytes` prices the
  byte-identical window the runtime then allocates and measures.
"""

import numpy as np
import pytest

from repro.core import compile as plancache
from repro.core import spec, tiles
from repro.core.kronecker import MultiLevelFMM
from repro.core.spec import operand_slab_bytes, resolve_fusion
from repro.algorithms.catalog import get_algorithm


@pytest.fixture(autouse=True)
def _default_tunables():
    yield
    spec.set_runtime_tunables(tile_rows=0, mem_budget_bytes=0)


def _ml(*shapes):
    return MultiLevelFMM([get_algorithm(s) for s in shapes])


class TestTileMap:
    @pytest.mark.parametrize("shapes,mkn", [
        (((2, 2, 2),), (32, 32, 32)),
        (((2, 2, 2), (2, 2, 2)), (64, 64, 64)),
        (((3, 2, 3), (2, 2, 2)), (96, 64, 96)),
        (((2, 5, 2),), (64, 160, 64)),
    ])
    @pytest.mark.parametrize("operand", ["A", "B", "C"])
    def test_windows_match_block_views(self, rng, shapes, mkn, operand):
        """TileMap views == CompiledPlan.block_views, same Morton order."""
        m, k, n = mkn
        ml = _ml(*shapes)
        cplan = plancache.compile((m, k, n), list(shapes), len(shapes), "abc")
        Mt, Kt, Nt = ml.dims_total
        bm, bk, bn = m // Mt, k // Kt, n // Nt
        shape = {"A": (m, k), "B": (k, n), "C": (m, n)}[operand]
        dims = {"A": (bm, bk), "B": (bk, bn), "C": (bm, bn)}[operand]
        X = rng.standard_normal(shape)
        tm = tiles.TileMap.for_operand(ml, operand, shape)
        expected = cplan.block_views(X, operand, *dims)
        got = tm.views(X)
        assert len(got) == len(expected) == tm.n_blocks
        for v_tm, v_plan in zip(got, expected):
            assert v_tm.shape == v_plan.shape == dims
            assert np.shares_memory(v_tm, X)
            np.testing.assert_array_equal(v_tm, v_plan)

    def test_views_slice_trailing_axes(self, rng):
        """Batched stacks slice the trailing two axes (memmaps unchanged)."""
        ml = _ml((2, 2, 2))
        tm = tiles.TileMap.for_operand(ml, "A", (8, 8))
        X = rng.standard_normal((3, 8, 8))
        v = tm.view(X, 0)
        assert v.shape == (3, 4, 4)
        assert np.shares_memory(v, X)

    def test_indivisible_shape_raises(self):
        with pytest.raises(ValueError, match="not divisible"):
            tiles.TileMap((9, 8), [(2, 2)])

    def test_empty_grids_raise(self):
        with pytest.raises(ValueError, match="at least one level"):
            tiles.TileMap((8, 8), [])


class TestStripBounds:
    @pytest.mark.parametrize("rows", [2, 3, 7, 27, 32, 63, 64, 81, 125])
    @pytest.mark.parametrize("tile_rows", [1, 2, 3, 5, 17, 64])
    def test_cover_and_no_single_rows(self, rows, tile_rows):
        """Strips partition [0, rows); no strip is 1 row high (rows > 1)."""
        bounds = tiles.strip_bounds(rows, tile_rows)
        assert bounds[0][0] == 0 and bounds[-1][1] == rows
        for (lo, hi), (lo2, _) in zip(bounds, bounds[1:]):
            assert hi == lo2
        heights = [hi - lo for lo, hi in bounds]
        assert all(h >= (2 if rows > 1 else 1) for h in heights)
        # every height fits a buffer sized for the clamped tile_rows
        assert max(heights) <= tiles.clamp_tile_rows(rows, tile_rows)

    def test_degenerate_single_strip(self):
        assert tiles.strip_bounds(16, 16) == [(0, 16)]
        assert tiles.strip_bounds(16, 99) == [(0, 16)]
        assert tiles.strip_bounds(1, 1) == [(0, 1)]

    def test_tail_rebalance(self):
        """A would-be 1-row tail takes a row from the preceding strip."""
        assert tiles.strip_bounds(64, 21) == [(0, 21), (21, 42), (42, 62),
                                              (62, 64)]

    def test_odd_rows_at_height_two_bump_to_three(self):
        """Odd row counts cannot be covered by 2-row strips without a
        1-row tail; the clamp bumps to 3."""
        assert tiles.clamp_tile_rows(7, 2) == 3
        heights = [hi - lo for lo, hi in tiles.strip_bounds(7, 2)]
        assert heights == [3, 2, 2]


class TestResolution:
    def test_pick_solves_budget(self):
        # window/row = group*lead*bn*item = 8*1*16*8 = 1024 B
        assert tiles.pick_tile_rows(4096, 64, 16, 8) == 4
        # scratch adds lead*bn*item = 128 B/row -> 3 rows fit
        assert tiles.pick_tile_rows(4096, 64, 16, 8, has_scratch=True) == 3

    def test_pick_clamps_to_safe_floor(self):
        assert tiles.pick_tile_rows(0, 64, 16, 8) == 2
        assert tiles.pick_tile_rows(10**12, 64, 16, 8) == 64

    def test_resolve_explicit_tunable_wins(self):
        spec.set_runtime_tunables(tile_rows=8, mem_budget_bytes=10**12)
        assert tiles.resolve_tile_rows(64, 64, 64, 8) == 8

    def test_resolve_budget_else_full_block(self):
        assert tiles.resolve_tile_rows(64, 64, 64, 8) == 64
        # per-row window = group(8) * bn(64) * 8 B = 4096 B; buy 8 rows
        spec.set_runtime_tunables(mem_budget_bytes=8 * 4096)
        assert tiles.resolve_tile_rows(64, 64, 64, 8, lead_elems=1) == 8

    def test_mem_budget_env_parses_suffixes(self, monkeypatch):
        monkeypatch.setenv(spec.MEM_BUDGET_ENV, "64M")
        assert spec.effective_mem_budget_bytes() == 64 * 2**20
        monkeypatch.setenv(spec.MEM_BUDGET_ENV, "2g")
        assert spec.effective_mem_budget_bytes() == 2 * 2**30

    def test_probe_gate_degrades_unsafe_splits(self, monkeypatch):
        """When the split probe reports instability the resolution
        falls back to the full block (the unsplit fused call)."""
        monkeypatch.setattr(tiles, "strip_split_is_exact",
                            lambda *a, **kw: False)
        spec.set_runtime_tunables(tile_rows=8)
        assert tiles.resolve_tile_rows(64, 64, 64, 8) == 64

    def test_probe_accepts_stable_shapes(self):
        """32^3 blocks are split-stable at every height (measured)."""
        assert tiles.strip_split_is_exact(32, 32, 32, 4)
        assert tiles.strip_split_is_exact(32, 32, 32, 32)  # no-split case


class TestFusionPricing:
    def test_operand_slab_bytes(self):
        ml = _ml((2, 2, 2))
        # Mt*Kt*bm*bk + Kt*Nt*bk*bn = 4*32*32 + 4*32*32 elements
        assert operand_slab_bytes(64, 64, 64, ml) == 2 * 4 * 32 * 32 * 8
        assert operand_slab_bytes(1, 1, 1, ml) == 0  # coarser than problem

    def test_auto_resolves_tiled_past_budget(self):
        ml = _ml((2, 2, 2))
        slab = operand_slab_bytes(64, 64, 64, ml)
        spec.set_runtime_tunables(mem_budget_bytes=slab - 1)
        assert resolve_fusion("auto", "abc", 10**9, slab) == "tiled"
        # at or under budget the in-core rule stands
        spec.set_runtime_tunables(mem_budget_bytes=slab)
        assert resolve_fusion("auto", "abc", 10**9, slab) in ("staged", "fused")
        # the naive variant has no fused/tiled interpretation
        spec.set_runtime_tunables(mem_budget_bytes=slab - 1)
        assert resolve_fusion("auto", "naive", 10**9, slab) == "staged"

    def test_auto_resolution_tracks_live_budget_across_compiles(self):
        """The plan cache must not pin an ``"auto"`` request to the
        lowering it resolved to under an earlier memory budget."""
        from repro.core import compile as plancache

        plancache.plan_cache_clear()
        ml = _ml((2, 2, 2))
        slab = operand_slab_bytes(64, 64, 64, ml)
        spec.set_runtime_tunables(mem_budget_bytes=slab - 1)
        tight = plancache.compile((64, 64, 64), "strassen", 1, fusion="auto")
        assert tight.fusion == "tiled"
        spec.set_runtime_tunables()  # budget back to unlimited
        relaxed = plancache.compile((64, 64, 64), "strassen", 1, fusion="auto")
        assert relaxed.fusion != "tiled"
        # ...and flipping the budget back re-routes to the tiled twin.
        spec.set_runtime_tunables(mem_budget_bytes=slab - 1)
        again = plancache.compile((64, 64, 64), "strassen", 1, fusion="auto")
        assert again is tight

    def test_window_model_matches_runtime(self, rng):
        """predict_tile_window_bytes == the runtime's measured peak."""
        from repro.core.executor import multiply
        from repro.core.runtime import last_report
        from repro.model.perfmodel import predict_tile_window_bytes

        ml = _ml((2, 2, 2), (2, 2, 2))
        A = rng.standard_normal((64, 64))
        B = rng.standard_normal((64, 64))
        spec.set_runtime_tunables(tile_rows=8)
        multiply(A, B, algorithm="strassen", levels=2, variant="abc",
                 fusion="tiled")
        rep = last_report()
        priced = predict_tile_window_bytes(64, 64, 64, ml)
        assert rep.tile_window_bytes == priced
        assert rep.peak_workspace_bytes <= priced
        assert rep.n_tiles > 0 and rep.io_bytes > 0
