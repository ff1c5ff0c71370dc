"""Workspace arena: preallocated, recycled buffers for the runtime.

The lowering runtime (:mod:`repro.core.runtime`) stages every core
multiply through temporary slabs — the full gathered/stacked slabs of the
staged pipeline, or the small group S/T/M buffers of the fused
streaming pipeline.  Allocating the temporaries per call would dominate
the serve-many-multiplies workload the ROADMAP targets, so this module
provides an arena: workspaces are built once per ``(plan, lead-shape,
mode)`` configuration, checked out for the duration of one execution, and
returned to a free list for the next call.  Repeated same-plan multiplies
therefore perform **zero** per-call temporary allocations on the hot path
(verified by ``tests/core/test_workspace.py``).

Checkout is thread-safe: concurrent executions of the same plan each get
their own workspace (the arena grows to the high-water mark of concurrent
use and then stops allocating).

The arena is also the runtime's **memory instrument**: it tracks the bytes
currently checked out (``bytes_in_use``), the process-lifetime high-water
mark (``peak_bytes``), and per-execution peaks via :class:`PeakMeter`
windows (:meth:`WorkspaceArena.start_meter` /
:meth:`WorkspaceArena.finish_meter`) — this is how the execution report's
``peak_workspace_bytes`` is measured, and how the fused pipeline's memory
win over the staged one is asserted in tests and benchmarks.
"""

from __future__ import annotations

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


@dataclass(eq=False)
class Workspace:
    """One checked-out set of named buffers for a single execution.

    Buffers are plain C-contiguous ndarrays; the runtime takes reshaped
    views of them (always views, never copies) and writes via ``out=`` /
    ``copyto``, so a workspace is reusable with no clearing between calls.

    A workspace spec may mark buffers ``"mmap"`` (the tiled lowering's
    slab-scale spill storage): those are built as ``np.memmap`` arrays
    over anonymous temp files and accounted separately — they back pages
    with disk, not RAM, so the arena's RAM meters (and the execution
    report's ``peak_workspace_bytes``) must not charge them.
    ``mmap_names`` records which buffers are spilled.
    """

    key: tuple
    buffers: dict[str, np.ndarray] = field(default_factory=dict)
    mmap_names: frozenset = frozenset()

    def __getitem__(self, name: str) -> np.ndarray:
        return self.buffers[name]

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self.buffers.values())

    @property
    def ram_nbytes(self) -> int:
        """Bytes of the RAM-resident buffers (what the peak meters charge)."""
        return sum(
            b.nbytes for name, b in self.buffers.items()
            if name not in self.mmap_names
        )

    @property
    def mmap_nbytes(self) -> int:
        """Bytes of the mmap-spilled buffers (disk-backed working set)."""
        return sum(
            b.nbytes for name, b in self.buffers.items()
            if name in self.mmap_names
        )


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
    """Keyed pools of reusable :class:`Workspace` objects.

    ``acquire(key, spec_factory)`` returns a free workspace for ``key`` or
    builds one; ``release`` returns it to the pool.  Pooled (idle) memory
    is bounded by ``max_bytes``: a release that would push the pool past
    the bound drops the workspace instead (hot configurations simply
    re-pool on their next release), so a long-running server cycling
    through many shapes cannot grow without limit.  :meth:`clear` drops
    every pooled buffer immediately (tests do this between cases).
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
        self._free: dict[tuple, list[Workspace]] = {}
        self.max_bytes = int(max_bytes)
        self.max_mmap_bytes = int(max_mmap_bytes)
        self._allocations = 0
        self._reuses = 0
        self._bytes_allocated = 0
        self._bytes_pooled = 0
        self._bytes_in_use = 0
        self._peak_bytes = 0
        self._in_use = 0
        self._mmap_bytes_pooled = 0
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

    def _mmap_buffer_closed(self) -> None:
        """Finalizer callback: one spilled buffer's mapping was released."""
        with self._mmap_open_lock:
            self._mmap_open -= 1

    def _new_mmap_buffer(self, shape, dtype) -> np.ndarray:
        """A buffer over an anonymous (already-unlinked) temp file.

        ``TemporaryFile`` unlinks on POSIX at creation, so a crash can
        never strand a spill file; the mapping holds its own reference to
        the underlying pages, so the descriptor closes immediately.  A
        ``weakref.finalize`` on the array keeps :attr:`stats`'s
        ``mmap_open`` an exact live-mapping count — the leak soak test's
        instrument.
        """
        dt = np.dtype(dtype)
        nbytes = max(1, int(np.prod(shape, dtype=np.int64)) * dt.itemsize)
        f = tempfile.TemporaryFile(prefix="repro_tile_")
        try:
            f.truncate(nbytes)
            buf = np.memmap(f, dtype=dt, mode="w+", shape=tuple(shape))
        finally:
            f.close()
        with self._mmap_open_lock:
            self._mmap_open += 1
        weakref.finalize(buf, self._mmap_buffer_closed)
        return buf

    def acquire(self, key: tuple, spec_factory) -> Workspace:
        """Check out a workspace for ``key``.

        ``spec_factory`` is only called on a pool miss — it must return a
        ``name -> (shape, dtype)`` mapping describing the buffers to
        build; an entry may carry a third ``"mmap"`` element to request a
        disk-backed (``np.memmap``) buffer, which the RAM meters then do
        not charge.  Keeping it a callable keeps the reuse hot path free
        of per-call spec construction.
        """
        with _trace.span("arena.acquire", "arena") as sp:
            with self._lock:
                pool = self._free.get(key)
                if pool:
                    ws = pool.pop()
                    self._bytes_pooled -= ws.ram_nbytes
                    self._mmap_bytes_pooled -= ws.mmap_nbytes
                    self._reuses += 1
                    self._in_use += 1
                    self._note_in_use_locked(ws.ram_nbytes)
                    self._note_mmap_in_use_locked(ws.mmap_nbytes)
                    sp.set(reuse=True, bytes=ws.ram_nbytes)
                    return ws
                self._allocations += 1
                self._in_use += 1
            # Build outside the lock: allocation can be slow and concurrent
            # acquires of other keys should not serialize behind it.
            buffers: dict[str, np.ndarray] = {}
            mmap_names = set()
            for name, entry in spec_factory().items():
                shape, dtype = entry[0], entry[1]
                if len(entry) > 2 and entry[2] == "mmap":
                    buffers[name] = self._new_mmap_buffer(shape, dtype)
                    mmap_names.add(name)
                else:
                    buffers[name] = np.empty(shape, dtype=dtype)
            ws = Workspace(
                key=key, buffers=buffers, mmap_names=frozenset(mmap_names)
            )
            with self._lock:
                self._bytes_allocated += ws.ram_nbytes
                self._note_in_use_locked(ws.ram_nbytes)
                self._note_mmap_in_use_locked(ws.mmap_nbytes)
            sp.set(reuse=False, bytes=ws.ram_nbytes)
            return ws

    def release(self, ws: Workspace) -> None:
        _trace.instant("arena.recycle", "arena", bytes=ws.ram_nbytes)
        with self._lock:
            self._in_use -= 1
            self._note_in_use_locked(-ws.ram_nbytes)
            self._note_mmap_in_use_locked(-ws.mmap_nbytes)
            if (self._bytes_pooled + ws.ram_nbytes > self.max_bytes
                    or self._mmap_bytes_pooled + ws.mmap_nbytes
                    > self.max_mmap_bytes):
                return  # over an idle bound: let this workspace go
            self._bytes_pooled += ws.ram_nbytes
            self._mmap_bytes_pooled += ws.mmap_nbytes
            self._free.setdefault(ws.key, []).append(ws)

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
            free = sum(len(v) for v in self._free.values())
            return ArenaStats(
                allocations=self._allocations,
                reuses=self._reuses,
                bytes_allocated=self._bytes_allocated,
                bytes_pooled=self._bytes_pooled,
                bytes_in_use=self._bytes_in_use,
                peak_bytes=self._peak_bytes,
                free=free,
                in_use=self._in_use,
                mmap_bytes_in_use=self._mmap_bytes_in_use,
                mmap_peak_bytes=self._mmap_peak_bytes,
                mmap_open=mmap_open,
            )

    def clear(self) -> None:
        """Drop every pooled workspace and reset the counters.

        ``mmap_open`` is *not* reset: it is decremented only by each
        spilled buffer's finalizer, so after a clear + GC it returns to
        the count of mappings still genuinely alive — that exactness is
        what the leak soak asserts on.
        """
        with self._lock:
            self._free.clear()
            self._allocations = 0
            self._reuses = 0
            self._bytes_allocated = 0
            self._bytes_pooled = 0
            self._bytes_in_use = 0
            self._peak_bytes = 0
            self._in_use = 0
            self._mmap_bytes_pooled = 0
            self._mmap_bytes_in_use = 0
            self._mmap_peak_bytes = 0


#: The process-wide arena the runtime allocates from.
workspace_arena = WorkspaceArena()


def arena_stats() -> ArenaStats:
    """Counters of the global arena (allocations, reuses, bytes, pool sizes)."""
    return workspace_arena.stats()


def arena_clear() -> None:
    """Empty the global arena (drops pooled buffers, resets counters)."""
    workspace_arena.clear()
