"""Workspace arena: recycled byte blocks carved into the runtime's buffers.

The lowering runtime (:mod:`repro.core.runtime`) stages every core
multiply through temporary slabs — the full gathered/stacked slabs of the
staged pipeline, or the small group S/T/M buffers of the fused
streaming pipeline.  Allocating the temporaries per call would dominate
the serve-many-multiplies workload the ROADMAP targets, so this module
provides an arena that recycles flat byte blocks by size, not by plan.
:meth:`WorkspaceArena.acquire` carves a key's named buffers as aligned
views of one idle RAM block large enough to hold them (the tiled
lowering's spilled buffers come the same way from one disk-backed
block); :meth:`WorkspaceArena.release` returns the block to the pool.  A
key that gets back the block it last used gets the same
:class:`Workspace` object, so repeated same-plan multiplies perform
**zero** per-call temporary allocations on the hot path (verified by
``tests/core/test_workspace.py``).

Only when no idle block fits does the arena allocate one of the needed
size, and it then drops the smaller idle blocks: they cannot serve this
need, and the new block serves everything they did.  A serial process
therefore idles at one block, the size of its largest workspace, however
many plans it has run; N concurrent executions idle at N blocks.

Checkout is thread-safe: workspaces checked out at the same time come
from distinct blocks and never share memory.

The arena is also the runtime's **memory instrument**: it tracks the bytes
currently checked out (``bytes_in_use``), the process-lifetime high-water
mark (``peak_bytes``), and per-execution peaks via :class:`PeakMeter`
windows (:meth:`WorkspaceArena.start_meter` /
:meth:`WorkspaceArena.finish_meter`) — this is how the execution report's
``peak_workspace_bytes`` is measured, and how the fused pipeline's memory
win over the staged one is asserted in tests and benchmarks.  The meters
charge each workspace's exact buffer bytes, never the size of the block
it was carved from.
"""

from __future__ import annotations

import math
import tempfile
import threading
import weakref
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from repro.obs import trace as _trace

__all__ = [
    "PeakMeter",
    "Workspace",
    "WorkspaceArena",
    "workspace_arena",
    "arena_stats",
    "arena_clear",
]

ArenaStats = namedtuple(
    "ArenaStats",
    "allocations reuses bytes_allocated bytes_pooled bytes_in_use "
    "peak_bytes free in_use mmap_bytes_in_use mmap_peak_bytes mmap_open",
)

#: Byte alignment of every buffer carved from a block (one cache line).
ALIGN = 64

#: Keys whose buffer layout the arena memoizes (oldest dropped first).
MAX_LAYOUTS = 256

_RAM, _DISK = 0, 1


@dataclass(eq=False)
class Workspace:
    """One checked-out set of named buffers for a single execution.

    Buffers are C-contiguous views carved from the arena's blocks; the
    runtime takes reshaped views of them (always views, never copies)
    and writes via ``out=`` / ``copyto``, so a workspace is reusable with
    no clearing between calls — and its contents are whatever the
    block's previous user left there.

    A workspace spec may mark buffers ``"mmap"`` (the tiled lowering's
    slab-scale spill storage): those are carved from a disk-backed
    ``np.memmap`` block over an anonymous temp file and accounted
    separately — they back pages with disk, not RAM, so the arena's RAM
    meters (and the execution report's ``peak_workspace_bytes``) must
    not charge them.  ``mmap_names`` records which buffers are spilled.
    ``blocks`` holds the ``(RAM, disk)`` blocks the buffers view (None
    where the workspace needs none).
    """

    key: tuple
    buffers: dict[str, np.ndarray] = field(default_factory=dict)
    mmap_names: frozenset = frozenset()
    blocks: tuple = field(default=(None, None), repr=False)
    #: Bytes of the RAM-resident buffers (what the peak meters charge).
    ram_nbytes: int = field(init=False)
    #: Bytes of the mmap-spilled buffers (disk-backed working set).
    mmap_nbytes: int = field(init=False)

    def __post_init__(self) -> None:
        self.mmap_nbytes = sum(self.buffers[n].nbytes for n in self.mmap_names)
        self.ram_nbytes = self.nbytes - self.mmap_nbytes

    def __getitem__(self, name: str) -> np.ndarray:
        return self.buffers[name]

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self.buffers.values())


class _Layout:
    """Where one key's buffers sit in its RAM and disk blocks.

    Each buffer starts at an :data:`ALIGN`-byte offset; ``sizes`` are the
    two blocks' minimum byte sizes (0 where the key needs no block).
    """

    __slots__ = ("entries", "sizes", "mmap_names")

    def __init__(self, spec: dict) -> None:
        entries = []
        sizes = [0, 0]
        for name, entry in spec.items():
            shape, dtype = tuple(entry[0]), np.dtype(entry[1])
            kind = _DISK if len(entry) > 2 and entry[2] == "mmap" else _RAM
            nbytes = math.prod(shape) * dtype.itemsize
            offset = -(-sizes[kind] // ALIGN) * ALIGN if nbytes else 0
            entries.append((name, shape, dtype, kind, offset))
            sizes[kind] = max(sizes[kind], offset + nbytes)
        self.entries = tuple(entries)
        self.sizes = tuple(sizes)
        self.mmap_names = frozenset(e[0] for e in entries if e[3] == _DISK)

    def carve(self, key: tuple, blocks: tuple) -> Workspace:
        buffers = {}
        for name, shape, dtype, kind, offset in self.entries:
            buffers[name] = np.ndarray(shape, dtype, buffer=blocks[kind],
                                       offset=offset)
        return Workspace(key=key, buffers=buffers,
                         mmap_names=self.mmap_names, blocks=blocks)


class PeakMeter:
    """One measurement window over the arena's in-use bytes.

    ``baseline`` is the in-use byte count when the window opened; ``peak``
    tracks the maximum observed while it is active.
    :meth:`WorkspaceArena.finish_meter` returns ``peak - baseline`` — for
    a serial execution that is exactly the bytes the execution checked
    out; concurrent executions see each other's checkouts (the meter
    reports pressure on the shared arena, not a per-thread attribution).
    """

    __slots__ = ("baseline", "peak")

    def __init__(self, baseline: int) -> None:
        self.baseline = baseline
        self.peak = baseline


class WorkspaceArena:
    """A pool of idle byte blocks that :class:`Workspace` objects are
    carved from.

    ``acquire(key, spec_factory)`` returns a workspace for ``key`` carved
    from idle blocks, building a block only when none fits; ``release``
    returns its blocks to the pool.  Each idle block is paired with the
    workspace last carved from it, so a key that gets its block back
    skips the carve.  Pooled (idle) memory is bounded by ``max_bytes``
    (RAM) and ``max_mmap_bytes`` (disk): a release that would push a
    pool past its bound drops the block instead.  :meth:`clear` drops
    every pooled block immediately (tests do this between cases).

    :meth:`stats` counts blocks: ``allocations`` blocks built, ``reuses``
    acquires that built none, ``free`` / ``bytes_pooled`` the idle blocks
    (``bytes_pooled`` the RAM ones).  ``bytes_allocated`` sums the RAM
    blocks built; the in-use and peak figures charge the workspaces'
    own buffer bytes.
    """

    #: Default bound on idle pooled bytes (1 GiB).
    DEFAULT_MAX_BYTES = 1 << 30

    #: Default bound on idle pooled *mmap* bytes (disk-backed, so larger).
    DEFAULT_MAX_MMAP_BYTES = 4 << 30

    def __init__(
        self,
        max_bytes: int = DEFAULT_MAX_BYTES,
        max_mmap_bytes: int = DEFAULT_MAX_MMAP_BYTES,
    ) -> None:
        self._lock = threading.Lock()
        # Idle (block, workspace last carved from it) pairs, RAM and
        # disk.  A block never references its workspace (only the pool
        # does), so a dropped block is freed at once, even with GC off.
        self._idle: tuple[list, list] = ([], [])
        self._pooled = [0, 0]
        self._layouts: dict[tuple, _Layout] = {}
        self.max_bytes = int(max_bytes)
        self.max_mmap_bytes = int(max_mmap_bytes)
        self._allocations = 0
        self._reuses = 0
        self._bytes_allocated = 0
        self._bytes_in_use = 0
        self._peak_bytes = 0
        self._in_use = 0
        self._mmap_bytes_in_use = 0
        self._mmap_peak_bytes = 0
        # The live-mapping count is touched by weakref finalizers, which
        # GC may run at any allocation point — including while a thread
        # holds a lock.  A dedicated re-entrant lock keeps that safe.
        self._mmap_open_lock = threading.RLock()
        self._mmap_open = 0
        self._meters: list[PeakMeter] = []

    def _note_in_use_locked(self, delta: int) -> None:
        """Adjust the in-use byte count and roll the high-water marks."""
        self._bytes_in_use += delta
        if delta > 0:
            if self._bytes_in_use > self._peak_bytes:
                self._peak_bytes = self._bytes_in_use
            for meter in self._meters:
                if self._bytes_in_use > meter.peak:
                    meter.peak = self._bytes_in_use

    def _note_mmap_in_use_locked(self, delta: int) -> None:
        """Adjust the spilled (mmap) in-use bytes and their high-water."""
        self._mmap_bytes_in_use += delta
        if delta > 0 and self._mmap_bytes_in_use > self._mmap_peak_bytes:
            self._mmap_peak_bytes = self._mmap_bytes_in_use

    def _mmap_block_closed(self) -> None:
        """Finalizer callback: one disk block's mapping was released."""
        with self._mmap_open_lock:
            self._mmap_open -= 1

    def _new_mmap_block(self, nbytes: int) -> np.ndarray:
        """A byte block over an anonymous (already-unlinked) temp file.

        ``TemporaryFile`` unlinks on POSIX at creation, so a crash can
        never strand a spill file; the mapping holds its own reference to
        the underlying pages, so the descriptor closes immediately.  A
        ``weakref.finalize`` on the block keeps :attr:`stats`'s
        ``mmap_open`` an exact live-mapping count — the leak soak test's
        instrument (views carved from the block keep it alive).
        """
        f = tempfile.TemporaryFile(prefix="repro_tile_")
        try:
            f.truncate(nbytes)
            block = np.memmap(f, dtype=np.uint8, mode="w+", shape=(nbytes,))
        finally:
            f.close()
        with self._mmap_open_lock:
            self._mmap_open += 1
        weakref.finalize(block, self._mmap_block_closed)
        return block

    def _forget_locked(self, ws: Workspace) -> None:
        """Unpair ``ws`` from its idle blocks: one of them is being
        given to another carve, so ``ws`` may not be handed out again."""
        for pool in self._idle:
            for i, (block, memo) in enumerate(pool):
                if memo is ws:
                    pool[i] = (block, None)

    def _unpool_locked(self, kind: int, i: int) -> np.ndarray:
        block, memo = self._idle[kind].pop(i)
        self._pooled[kind] -= block.nbytes
        if memo is not None:
            self._forget_locked(memo)
        return block

    def _take_carved_locked(self, key: tuple) -> Workspace | None:
        """The idle workspace last carved for ``key``, with its blocks."""
        for pool in self._idle:
            for _, ws in pool:
                if ws is not None and ws.key == key:
                    for kind, own in enumerate(ws.blocks):
                        if own is not None:
                            self._unpool_locked(kind, next(
                                i for i, (block, _) in enumerate(self._idle[kind])
                                if block is own))
                    return ws
        return None

    def _take_block_locked(self, kind: int, size: int):
        """The smallest idle block of ``kind`` holding ``size`` bytes, or
        None after dropping every idle block of ``kind`` (all smaller)."""
        pool = self._idle[kind]
        best = None
        for i, (block, _) in enumerate(pool):
            if block.nbytes >= size and (
                    best is None or block.nbytes < pool[best][0].nbytes):
                best = i
        if best is not None:
            return self._unpool_locked(kind, best)
        while pool:
            self._unpool_locked(kind, len(pool) - 1)
        return None

    def acquire(self, key: tuple, spec_factory) -> Workspace:
        """Check out a workspace for ``key``.

        ``spec_factory`` is only called the first time the arena sees
        ``key`` (layouts are memoized per key) — it must return a
        ``name -> (shape, dtype)`` mapping describing the buffers; an
        entry may carry a third ``"mmap"`` element to request a
        disk-backed buffer, which the RAM meters then do not charge.
        Keeping it a callable keeps the reuse hot path free of per-call
        spec construction.
        """
        with _trace.span("arena.acquire", "arena") as sp:
            with self._lock:
                ws = self._take_carved_locked(key)
                if ws is not None:
                    self._reuses += 1
                    self._in_use += 1
                    self._note_in_use_locked(ws.ram_nbytes)
                    self._note_mmap_in_use_locked(ws.mmap_nbytes)
                    sp.set(reuse=True, bytes=ws.ram_nbytes)
                    return ws
                layout = self._layouts.get(key)
            if layout is None:
                layout = _Layout(spec_factory())
                with self._lock:
                    if len(self._layouts) >= MAX_LAYOUTS:
                        del self._layouts[next(iter(self._layouts))]
                    self._layouts[key] = layout
            with self._lock:
                blocks = [
                    self._take_block_locked(kind, size) if size else None
                    for kind, size in enumerate(layout.sizes)
                ]
                built = [kind for kind, size in enumerate(layout.sizes)
                         if size and blocks[kind] is None]
                self._allocations += len(built)
                if not built:
                    self._reuses += 1
                self._in_use += 1
            # Build outside the lock: allocation can be slow and concurrent
            # acquires should not serialize behind it.
            for kind in built:
                size = layout.sizes[kind]
                blocks[kind] = (self._new_mmap_block(size) if kind == _DISK
                                else np.empty(size, dtype=np.uint8))
            ws = layout.carve(key, tuple(blocks))
            with self._lock:
                if _RAM in built:
                    self._bytes_allocated += layout.sizes[_RAM]
                self._note_in_use_locked(ws.ram_nbytes)
                self._note_mmap_in_use_locked(ws.mmap_nbytes)
            sp.set(reuse=not built, bytes=ws.ram_nbytes)
            return ws

    def release(self, ws: Workspace) -> None:
        _trace.instant("arena.recycle", "arena", bytes=ws.ram_nbytes)
        with self._lock:
            self._in_use -= 1
            self._note_in_use_locked(-ws.ram_nbytes)
            self._note_mmap_in_use_locked(-ws.mmap_nbytes)
            bounds = (self.max_bytes, self.max_mmap_bytes)
            keep = [block is not None
                    and self._pooled[kind] + block.nbytes <= bounds[kind]
                    for kind, block in enumerate(ws.blocks)]
            # A block over its idle bound is let go; the workspace then
            # cannot be handed out again without it.
            whole = keep == [block is not None for block in ws.blocks]
            for kind, block in enumerate(ws.blocks):
                if keep[kind]:
                    self._pooled[kind] += block.nbytes
                    self._idle[kind].append((block, ws if whole else None))

    # ------------------------------------------------------------------ #
    # Peak metering (per-execution high-water windows)
    # ------------------------------------------------------------------ #
    def start_meter(self) -> PeakMeter:
        """Open a high-water window over the arena's in-use bytes."""
        with self._lock:
            meter = PeakMeter(self._bytes_in_use)
            self._meters.append(meter)
            return meter

    def finish_meter(self, meter: PeakMeter) -> int:
        """Close a window; returns the peak bytes acquired during it."""
        with self._lock:
            try:
                self._meters.remove(meter)
            except ValueError:
                pass  # already closed (idempotent)
            return max(0, meter.peak - meter.baseline)

    def stats(self) -> ArenaStats:
        with self._mmap_open_lock:
            mmap_open = self._mmap_open
        with self._lock:
            return ArenaStats(
                allocations=self._allocations,
                reuses=self._reuses,
                bytes_allocated=self._bytes_allocated,
                bytes_pooled=self._pooled[_RAM],
                bytes_in_use=self._bytes_in_use,
                peak_bytes=self._peak_bytes,
                free=len(self._idle[_RAM]) + len(self._idle[_DISK]),
                in_use=self._in_use,
                mmap_bytes_in_use=self._mmap_bytes_in_use,
                mmap_peak_bytes=self._mmap_peak_bytes,
                mmap_open=mmap_open,
            )

    def clear(self) -> None:
        """Drop every pooled block and memoized layout; reset the counters.

        ``mmap_open`` is *not* reset: it is decremented only by each
        disk block's finalizer, so after a clear it returns to the count
        of mappings still genuinely alive — that exactness is what the
        leak soak asserts on.
        """
        with self._lock:
            for pool in self._idle:
                pool.clear()
            self._pooled = [0, 0]
            self._layouts.clear()
            self._allocations = 0
            self._reuses = 0
            self._bytes_allocated = 0
            self._bytes_in_use = 0
            self._peak_bytes = 0
            self._in_use = 0
            self._mmap_bytes_in_use = 0
            self._mmap_peak_bytes = 0


#: The process-wide arena the runtime allocates from.
workspace_arena = WorkspaceArena()


def arena_stats() -> ArenaStats:
    """Counters of the global arena (allocations, reuses, bytes, pool sizes)."""
    return workspace_arena.stats()


def arena_clear() -> None:
    """Empty the global arena (drops pooled blocks, resets counters)."""
    workspace_arena.clear()
