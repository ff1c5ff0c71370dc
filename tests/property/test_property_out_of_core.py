"""Out-of-core property suite: memmap operands, bitwise equality, leaks.

The tiled lowering's reproducibility contract:

* ``fusion="tiled"`` with ``np.memmap``-backed operands is **bitwise**
  identical to the in-core in-RAM result of the same lowering *and* to
  the fused pipeline — across schedules, variants and strip heights.
* The measured peak RAM workspace never exceeds the priced tile window
  (``predict_tile_window_bytes``), and the report carries the spill
  accounting (``io_bytes``/``n_tiles``/``tile_window_bytes``).
* A budget-capped soak leaks neither mmap handles nor arena bytes:
  after ``arena_clear()`` + GC the arena reports zero open mmap
  buffers and zero bytes in use.

The PR-7 BLAS row-split tail-kernel caveat is **regression-pinned**
(xfail, not skipped) in :class:`TestRowSplitCaveat`: rectangular/odd
block shapes such as 27^3 are not row-split-stable under this BLAS, and
the runtime's probe gate (:func:`repro.core.tiles.strip_split_is_exact`)
is what keeps the tiled path bitwise-equal anyway — by degrading those
plans to full-block strips.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.core import spec, tiles
from repro.core.executor import multiply
from repro.core.runtime import last_report
from repro.core.workspace import arena_clear, arena_stats

# (algorithm, levels, problem) — square and rectangular schedules, one
# and two levels; every problem divides its schedule exactly so the
# whole multiply runs through the core (no fringe noise in the bitwise
# comparison).
SCHEDULES = [
    ("strassen", 2, (64, 64, 64)),
    ("<3,2,3>", 1, (96, 64, 96)),
    ("strassen+<3,2,3>", 2, (96, 64, 96)),
    ("<3,3,3>", 1, (81, 81, 81)),
]
VARIANTS = ["ab", "abc"]
WORKERS = [("threads", 1)]


@pytest.fixture(autouse=True)
def _default_tunables():
    yield
    spec.set_runtime_tunables(tile_rows=0, mem_budget_bytes=0)


def _memmap_operands(tmp_path, rng, m, k, n, dtype=np.float64):
    A = np.memmap(tmp_path / "A.dat", dtype=dtype, mode="w+", shape=(m, k))
    B = np.memmap(tmp_path / "B.dat", dtype=dtype, mode="w+", shape=(k, n))
    A[:] = rng.standard_normal((m, k))
    B[:] = rng.standard_normal((k, n))
    A.flush()
    B.flush()
    return A, B


class TestMemmapBitwise:
    @pytest.mark.parametrize("workers,nworkers", WORKERS)
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("algorithm,levels,mkn", SCHEDULES)
    def test_memmap_equals_incore_fused(self, tmp_path, rng, algorithm,
                                        levels, mkn, variant, workers,
                                        nworkers):
        """Tiled x memmap == in-RAM tiled == fused."""
        m, k, n = mkn
        Am, Bm = _memmap_operands(tmp_path, rng, m, k, n)
        A, B = np.array(Am), np.array(Bm)
        kw = dict(algorithm=algorithm, levels=levels, variant=variant,
                  threads=nworkers, workers=workers)
        ref = multiply(A, B, fusion="fused", **kw)
        spec.set_runtime_tunables(tile_rows=8)
        tiled_ram = multiply(A, B, fusion="tiled", **kw)
        tiled_mmap = multiply(Am, Bm, fusion="tiled", **kw)
        rep = last_report()
        np.testing.assert_array_equal(tiled_ram, ref)
        np.testing.assert_array_equal(tiled_mmap, ref)
        assert rep.fusion == "tiled"
        assert rep.n_tiles > 0
        assert rep.io_bytes > 0
        assert 0 < rep.peak_workspace_bytes <= rep.tile_window_bytes

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_auto_budget_goes_tiled(self, tmp_path, rng, dtype):
        """fusion="auto" resolves tiled once the slabs exceed the budget,
        and the result matches the explicit in-core lowering bitwise."""
        m = k = n = 64
        Am, Bm = _memmap_operands(tmp_path, rng, m, k, n, dtype)
        A, B = np.array(Am), np.array(Bm)
        ref = multiply(A, B, algorithm="strassen", levels=2, variant="abc",
                       fusion="fused")
        spec.set_runtime_tunables(mem_budget_bytes=16 * 1024)
        out = multiply(Am, Bm, algorithm="strassen", levels=2,
                       variant="abc", fusion="auto")
        rep = last_report()
        assert rep.fusion == "tiled"
        assert rep.tile_window_bytes <= 16 * 1024
        np.testing.assert_array_equal(out, ref)

    def test_batched_tiled_matches_fused(self, rng):
        """The lead (batch) axis streams through the same strips."""
        A = rng.standard_normal((3, 64, 64))
        B = rng.standard_normal((3, 64, 64))
        from repro.core.executor import multiply_batched

        ref = multiply_batched(A, B, algorithm="strassen", levels=2,
                               variant="abc", fusion="fused")
        spec.set_runtime_tunables(tile_rows=8)
        out = multiply_batched(A, B, algorithm="strassen", levels=2,
                               variant="abc", fusion="tiled")
        np.testing.assert_array_equal(out, ref)


class TestRowSplitCaveat:
    """The PR-7 BLAS row-split tail-kernel caveat, regression-pinned.

    Splitting a dgemm by rows can switch the BLAS library's
    blocking/accumulation kernel; which block shapes are affected is an
    implementation detail of the installed BLAS.  These cells document
    the measured behavior rather than assuming it: they xfail where the
    caveat bites today and xpass (not silently skip) on a BLAS where it
    does not, so a library upgrade that shifts the boundary is noticed.
    """

    @pytest.mark.xfail(
        reason="PR-7 caveat: 27^3 blocks are not row-split bitwise-stable "
        "under this BLAS (tail-kernel switch); the runtime's probe gate "
        "degrades such plans to full-block strips instead",
        strict=False,
    )
    @pytest.mark.parametrize("tile_rows", [2, 5, 9])
    def test_raw_split_rectangular_blocks(self, tile_rows):
        assert tiles.strip_split_is_exact(27, 27, 27, tile_rows)

    @pytest.mark.xfail(
        reason="PR-7 caveat: height-1 strips always take a GEMV-style "
        "kernel with a different k-accumulation order",
        strict=False,
    )
    def test_raw_single_row_split(self):
        rng = np.random.default_rng(0)
        S = rng.standard_normal((2, 63, 63))
        T = rng.standard_normal((2, 63, 63))
        full = np.matmul(S, T)
        out = np.empty_like(full)
        for lo in range(63):
            np.matmul(S[:, lo:lo + 1, :], T, out=out[:, lo:lo + 1, :])
        assert np.array_equal(out, full)

    def test_probe_gate_keeps_unstable_shapes_bitwise(self, rng):
        """The caveat never reaches users: <3,3,3> at 81^3 (27^3 blocks)
        stays bitwise-equal because the probe gate rejects the split."""
        A = rng.standard_normal((81, 81))
        B = rng.standard_normal((81, 81))
        ref = multiply(A, B, algorithm="<3,3,3>", variant="abc",
                       fusion="fused", threads=1)
        spec.set_runtime_tunables(tile_rows=5)
        out = multiply(A, B, algorithm="<3,3,3>", variant="abc",
                       fusion="tiled", threads=1)
        np.testing.assert_array_equal(out, ref)
        if not tiles.strip_split_is_exact(27, 27, 27, 5):
            # fallback path: one full-block strip per product group
            assert last_report().n_tiles <= 3


class TestLeakSoak:
    def test_budget_capped_soak_no_leaked_mmaps(self, rng):
        """A budget-capped soak leaks neither mmap handles nor arena
        bytes.  ``mmap_open`` decrements only from the buffers'
        ``weakref.finalize`` callbacks, so it counts every spill file
        the OS still holds — the direct instrument for handle leaks.
        """
        A = rng.standard_normal((64, 64))
        B = rng.standard_normal((64, 64))
        spec.set_runtime_tunables(mem_budget_bytes=64 * 1024)
        for _ in range(10):
            out = multiply(A, B, algorithm="strassen", levels=2,
                           variant="abc", fusion="tiled")
            rep = last_report()
            assert rep.fusion == "tiled"
            assert rep.peak_workspace_bytes <= rep.tile_window_bytes
        assert np.allclose(out, A @ B)
        arena_clear()
        gc.collect()
        st = arena_stats()
        assert st.mmap_open == 0, f"leaked mmap buffers: {st}"
        assert st.mmap_bytes_in_use == 0
        assert st.bytes_in_use == 0
        assert st.in_use == 0
