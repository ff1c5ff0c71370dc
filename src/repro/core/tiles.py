"""Morton tile windows: out-of-core addressing for the tiled lowering.

The paper's recursive-block (Morton-like) operand storage (§3.3,
:mod:`repro.core.morton`) orders submatrix blocks so multi-level FMM
touches operands in locality-preserving order.  The out-of-core tiled
lowering (``fusion="tiled"``) leans on exactly that property: operands
may be ``np.memmap``-backed, slab-scale temporaries spill to an mmap block,
and the runtime streams the product/scatter phase through a bounded RAM
window strip by strip — every access walking the Morton block order, so
the page working set stays as small as the window.

This module is the addressing layer of that path:

* :class:`TileMap` maps a Morton recursive-block index to its
  ``(rows, cols)`` slice window over the flat (row-major) operand — the
  same blocks :meth:`repro.core.compile.CompiledPlan.block_views`
  materializes, derived from the same
  :func:`repro.core.morton.recursive_to_rowmajor` permutation, so the
  two layers cannot disagree on which bytes a block covers.
* :func:`strip_bounds` splits a block's rows into the half-open tile
  strips the runtime streams the batched product matmul over.
* :func:`pick_tile_rows` / :func:`resolve_tile_rows` solve the strip
  height from the configured memory budget — the single resolution
  shared by the runtime's tiled workspace spec and the performance
  model's :func:`repro.model.perfmodel.predict_tile_window_bytes`, so
  the priced window and the allocated window are byte-identical.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from repro.core.morton import recursive_to_rowmajor
from repro.core.spec import effective_mem_budget_bytes, effective_tile_rows

__all__ = [
    "TileMap",
    "clamp_tile_rows",
    "pick_tile_rows",
    "resolve_tile_rows",
    "strip_bounds",
    "strip_split_is_exact",
]


class TileMap:
    """Morton recursive-block index → tile window over one flat operand.

    Parameters
    ----------
    shape:
        The (core) operand shape ``(rows, cols)`` the windows tile.
    grids:
        Per-level partition stack ``[(rows_l, cols_l), ...]``, outermost
        first — exactly the stack
        :meth:`repro.core.kronecker.MultiLevelFMM.grids` reports for the
        operand.

    The map is pure metadata: :meth:`window` returns the ``(row, col)``
    slice pair of one block, :meth:`view` / :meth:`views` apply windows
    to a concrete array (slicing the trailing two axes, so batched
    stacks and ``np.memmap`` operands work unchanged — a view of a
    memmap reads through the mapping lazily, which is the whole point).
    """

    def __init__(self, shape: tuple[int, int], grids) -> None:
        grids = [(int(r), int(c)) for r, c in grids]
        if not grids:
            raise ValueError("need at least one level of partitioning")
        rows = math.prod(r for r, _ in grids)
        cols = math.prod(c for _, c in grids)
        nr, nc = int(shape[0]), int(shape[1])
        if nr % rows or nc % cols:
            raise ValueError(
                f"shape {tuple(shape)} not divisible by block grid "
                f"{rows}x{cols}"
            )
        self.shape = (nr, nc)
        self.grids = tuple(grids)
        self.block_shape = (nr // rows, nc // cols)
        self.grid_shape = (rows, cols)

    @classmethod
    def for_operand(cls, ml, operand: str, shape: tuple[int, int]) -> "TileMap":
        """The tile map of operand ``'A'|'B'|'C'`` under schedule ``ml``."""
        return cls(shape, ml.grids(operand))

    @cached_property
    def _perm(self) -> np.ndarray:
        return recursive_to_rowmajor(list(self.grids))

    @property
    def n_blocks(self) -> int:
        return len(self._perm)

    def window(self, rec: int) -> tuple[slice, slice]:
        """The ``(rows, cols)`` slice window of Morton block ``rec``."""
        br, bc = self.block_shape
        i, j = divmod(int(self._perm[rec]), self.grid_shape[1])
        return (slice(i * br, (i + 1) * br), slice(j * bc, (j + 1) * bc))

    def windows(self) -> list[tuple[slice, slice]]:
        """All block windows, in Morton (recursive-block) order."""
        return [self.window(rec) for rec in range(self.n_blocks)]

    def view(self, X: np.ndarray, rec: int) -> np.ndarray:
        """The view of block ``rec`` in ``X`` (trailing-axes slicing)."""
        rs, cs = self.window(rec)
        return X[..., rs, cs]

    def views(self, X: np.ndarray) -> list[np.ndarray]:
        """Views of every block of ``X``, in Morton order.

        Identical (same order, same bytes) to
        ``CompiledPlan.block_views`` for the matching operand — asserted
        in ``tests/core/test_tiles.py``.
        """
        return [self.view(X, rec) for rec in range(self.n_blocks)]

    def __repr__(self) -> str:
        return (
            f"TileMap({self.shape[0]}x{self.shape[1]}, "
            f"grid={self.grid_shape[0]}x{self.grid_shape[1]}, "
            f"block={self.block_shape[0]}x{self.block_shape[1]})"
        )


def clamp_tile_rows(rows: int, tile_rows: int) -> int:
    """Clamp a strip height to the bitwise-safe range for ``rows``-row blocks.

    BLAS dispatches a single-row GEMM through a GEMV-style kernel whose
    k-accumulation order differs from the multi-row call, so a height-1
    strip breaks the tiled path's bitwise contract with the fused
    lowering (measured: every strip height >= 2 — including irregular
    tails — is bitwise-stable; height 1 never is).  Hence the floor here
    is 2, not 1, whenever the block has more than one row; and because
    :func:`strip_bounds` keeps tails >= 2 rows by donating a row from
    the preceding strip, an odd row count cannot be covered by strips of
    height exactly 2 — that one case is bumped to 3.  A one-row block is
    necessarily a single full-block strip, which is the unsplit (fused)
    matmul and therefore safe.
    """
    rows = int(rows)
    tr = max(1, int(tile_rows))
    if rows <= 1:
        return 1
    tr = min(tr, rows)
    tr = max(2, tr)
    if rows % 2 and tr == 2:
        tr = 3
    return tr


def strip_bounds(rows: int, tile_rows: int) -> list[tuple[int, int]]:
    """Half-open row strips ``[lo, hi)`` of height ``tile_rows`` over a block.

    The last strip may be shorter — but never one row high (see
    :func:`clamp_tile_rows`): when the natural tail would be a single
    row, the preceding strip donates one row so the final strips are
    ``(tile_rows - 1, 2)``.  All heights stay ``<= tile_rows``, so
    buffers sized for ``tile_rows`` strips always fit.
    ``tile_rows >= rows`` yields the single full-block strip — the
    degenerate case in which the tiled product matmul is literally the
    fused pipeline's.
    """
    rows = int(rows)
    tile_rows = clamp_tile_rows(rows, tile_rows)
    if rows <= tile_rows:
        return [(0, rows)]
    bounds: list[tuple[int, int]] = []
    lo = 0
    while lo < rows:
        hi = min(lo + tile_rows, rows)
        if rows - hi == 1:
            hi -= 1
        bounds.append((lo, hi))
        lo = hi
    return bounds


@lru_cache(maxsize=256)
def strip_split_is_exact(
    bm: int, bk: int, bn: int, tile_rows: int, dtype_str: str = "float64"
) -> bool:
    """Measured bitwise-safety of row-strip-splitting this block's matmul.

    Whether ``np.matmul`` over the strips of :func:`strip_bounds` (bm,
    tile_rows) reproduces the unsplit batched call bit-for-bit for a
    ``(bm, bk) @ (bk, bn)`` block.  This is BLAS-kernel territory — the
    PR-7 row-split tail-kernel caveat: changing a dgemm's row count can
    switch the library's blocking/accumulation kernel, and which shapes
    are affected is an implementation detail (measured here: 32^3 blocks
    are split-stable at every height, 27^3 blocks are unstable at most
    heights, height-1 strips are unstable everywhere).  So the tiled
    lowering does not guess: it probes the actual block shape once per
    process (deterministic fixed-seed operands, cached) and falls back
    to the single full strip — the unsplit fused call — when splitting
    would change bits.  The probe is batched (batch 2) to mirror the
    runtime's call exactly.
    """
    if int(tile_rows) >= int(bm):
        return True
    rng = np.random.default_rng(0xA5)
    dt = np.dtype(dtype_str)
    S = rng.standard_normal((2, bm, bk)).astype(dt)
    T = rng.standard_normal((2, bk, bn)).astype(dt)
    full = np.matmul(S, T)
    out = np.empty_like(full)
    for lo, hi in strip_bounds(bm, tile_rows):
        np.matmul(S[:, lo:hi, :], T, out=out[:, lo:hi, :])
    return bool(np.array_equal(out, full))


def pick_tile_rows(
    budget_bytes: int,
    bm: int,
    bn: int,
    group: int,
    lead_elems: int = 1,
    itemsize: int = 8,
    has_scratch: bool = False,
) -> int:
    """Largest strip height whose RAM window fits ``budget_bytes``.

    The tiled lowering's RAM window is the group of ``M`` strip buffers
    — ``group × lead × tile_rows × bn`` elements — plus, for plans with
    non-±1 scatter coefficients, one scratch strip.  Everything
    slab-scale (operand slabs, ``S``/``T`` group buffers) lives in
    mmap-spilled storage and does not count.
    Clamped via :func:`clamp_tile_rows`: even a budget below the
    smallest bitwise-safe window still executes (with a window that
    overshoots the budget by the minimum safe amount).
    """
    per_row = group * lead_elems * bn * itemsize
    if has_scratch:
        per_row += lead_elems * bn * itemsize
    if per_row <= 0:
        return clamp_tile_rows(bm, bm)
    return clamp_tile_rows(bm, int(budget_bytes) // per_row)


def resolve_tile_rows(
    bm: int,
    bk: int,
    bn: int,
    group: int,
    lead_elems: int = 1,
    itemsize: int = 8,
    has_scratch: bool = False,
) -> int:
    """The strip height one tiled execution uses, tunables applied.

    An explicit ``tile_rows`` tunable (wisdom or
    :func:`repro.core.spec.set_runtime_tunables`) wins, clamped to the
    block height; otherwise the height is solved from the effective
    memory budget via :func:`pick_tile_rows`; with neither configured
    the full block is one strip.  Any height that would actually split
    the block is then gated by :func:`strip_split_is_exact` — when
    splitting this block shape at this height would change bits (the
    PR-7 BLAS tail-kernel caveat), the resolution degrades to the full
    block as one strip, trading the smaller window for unconditional
    bitwise equality with the in-core pipelines.  This is the
    **single** resolution shared by the runtime and
    ``predict_tile_window_bytes`` — the priced window is the allocated
    window by construction.
    """
    explicit = effective_tile_rows()
    if explicit:
        tr = clamp_tile_rows(bm, explicit)
    else:
        budget = effective_mem_budget_bytes()
        if not budget:
            return clamp_tile_rows(bm, bm)
        tr = pick_tile_rows(
            budget, bm, bn, group, lead_elems, itemsize, has_scratch
        )
    if tr < bm:
        dt = "float32" if int(itemsize) == 4 else "float64"
        if not strip_split_is_exact(bm, bk, bn, tr, dt):
            return clamp_tile_rows(bm, bm)
    return tr
