"""Variant-aware task-graph runtime over the :class:`CompiledPlan` IR.

The paper's central implementation result is that fast matrix
multiplication pays off when the per-product operand sums and C-updates
are *fused* into the execution pipeline (the Naive/AB/ABC variant family
of §4.1) instead of materializing all R product temporaries.  This module
is that idea as **one runtime**: a compiled plan lowers to a task graph in
one of two modes, and every engine — the fast NumPy ``direct`` path, the
instrumented simulated-BLIS ``blocked`` path, and batched stacks — is a
thin client of the same graphs with a pluggable per-product *leaf kernel*.

**Staged lowering** (``fusion="staged"``) is the reference-framework
memory behavior, kept for small cores where batched matmuls beat kernel
dispatch overhead:

* **gather** tasks copy the recursive blocks of ``A``/``B`` into
  contiguous arena slabs ``A~``/``B~``;
* **product** tasks compute ranges of coefficient products ``M_r`` via
  stacked matmuls (``S = Ut A~``, ``T = Vt B~``, ``M = S @ T``);
* **scatter** tasks own disjoint destination blocks of ``C`` and apply
  ``upd = W M`` — all R products live simultaneously (O(R) slabs).

**Tiled lowering** (``fusion="tiled"``) is the fused pipeline taken
out-of-core: the same task graph, but the slab-scale buffers (operand
slabs, group ``S``/``T`` strips, the multi-worker ``Cacc``
accumulators) live in mmap-spilled arena storage
(:mod:`repro.core.workspace`), and each **tile** task streams the
batched product matmul and the scatter-accumulate through Morton-ordered
row strips of a bounded RAM window (:mod:`repro.core.tiles`).  The
group boundaries, coefficient GEMMs and accumulation order are the
fused pipeline's exactly — relocating a buffer to mmap changes no bits,
and the strip-split batched matmul is row-invariant — so tiled results
are bitwise-equal to the in-core paths at every worker count while
operands (which may themselves be ``np.memmap``-backed) and slabs far
larger than RAM stream through a window the memory budget sizes
(:func:`repro.core.spec.effective_mem_budget_bytes`).

**Fused lowering** (``fusion="fused"``) is the paper's streaming
pipeline: each **fproduct** task walks a range of products, forming the
A-combos and B-combos of a small *group* in per-worker recycled buffers,
computing the group's products, and immediately scatter-accumulating
each into its C tiles — O(workers · group) live product buffers instead
of O(R).  On the NumPy substrate the combos come from short
coefficient-GEMM strips against the gathered operand slabs (so the fused
pipeline keeps the staged pipeline's arithmetic efficiency while
dropping its O(R) ``S``/``T``/``M``/``upd`` slabs); a leaf that packs
its own operands (BLIS) instead gathers each product's combos straight
from the block views.  With several workers, each accumulates into a
private ``Cacc`` slab and a deterministic **reduce** phase folds the
slabs into ``C`` (write-disjoint block ranges), so results are
bitwise-reproducible for a given thread count.

The §4.1 write-back variants are *lowering modes* of this one runtime:
``naive`` (materialize everything) lowers staged; ``ab``/``abc`` lower
fused once the staged slabs outgrow the cache
(:func:`repro.core.spec.resolve_fusion`).  On the BLIS substrate the leaf
kernel (:class:`repro.core.variants.BlisProductLeaf`) additionally fuses
the sums into packing (ab/abc) and the C update into the macro-kernel
(abc), exactly as the paper generates.

Phases are separated by barriers; tasks within a phase are independent.
``threads=1`` executes the *same* schedule inline.  Worker pools are
process-wide and reused across calls (:func:`get_pool`), and every
temporary lives in the recycling workspace arena
(:mod:`repro.core.workspace`), whose per-execution high-water meter feeds
``peak_workspace_bytes`` on the :class:`ExecutionReport` every execution
publishes (:func:`last_report`).

The classical ``<1,1,1>`` schedule — the §4.4 poly-algorithm's GEMM
fallback — has no operand sums to fuse and no workspace to avoid, so it
never enters the task graph: :func:`execute_blas` runs it as one
``np.matmul`` (``core_path="blas"``), bitwise-equal to interpreting the
classical plan.  The direct engine and ``multiply`` route classical
configurations there; :func:`execute_plan` itself still interprets
every plan it is handed.

Fallbacks (both serial, both documented limits of the arena path): staged
cores whose stacked intermediates exceed ``vector_cap`` run the
memory-light per-step loop, as does a destination dtype that cannot
absorb the plan dtype (e.g. integer ``C``).
"""

from __future__ import annotations

import atexit
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.core.compile import CompiledPlan
from repro.obs import metrics as obs_metrics, reports as obs_reports, trace as obs_trace
from repro.obs.logcfg import get_logger
from repro.core.spec import (
    DEFAULT_FUSED_GROUP,
    check_backend_workers,
    dtype_name,
    effective_fused_group,
    validate_resolved_fusion,
)
from repro.core.tiles import resolve_tile_rows, strip_bounds
from repro.core.workspace import workspace_arena
from repro.kernels.reference import (
    NUMPY_LEAF,
    NumpyProductLeaf,
    scatter_accumulate as _scatter_product,
)

__all__ = [
    "ExecutionReport",
    "NumpyProductLeaf",
    "Task",
    "TaskGraph",
    "lower_plan",
    "execute_plan",
    "execute_blas",
    "blas_report_fields",
    "run_blas",
    "last_report",
    "get_pool",
    "pool_info",
    "shutdown_pools",
    "DEFAULT_VECTOR_CAP",
    "DEFAULT_CHUNK_TARGET",
    "DEFAULT_FUSED_GROUP",
]

#: Per-element stacked-intermediate bound for the staged arena path (elements).
DEFAULT_VECTOR_CAP = 1 << 24
#: Intermediate-size target for slicing batches into cache-resident chunks.
DEFAULT_CHUNK_TARGET = 1 << 17

_log = get_logger(__name__)

_m_executions = obs_metrics.counter(
    "runtime.executions", "execute_plan calls completed"
)
_m_latency = obs_metrics.histogram(
    "runtime.latency_s", "execute_plan wall-clock latency in seconds"
)
_m_io_bytes = obs_metrics.counter(
    "runtime.io_bytes",
    "logical bytes the tiled lowering moved between the RAM window "
    "and mmap-spilled buffers",
)


# ---------------------------------------------------------------------- #
# Reusable worker pools
# ---------------------------------------------------------------------- #
_pool_lock = threading.Lock()
_pools: dict[int, ThreadPoolExecutor] = {}
_pools_atexit = False


def get_pool(workers: int) -> ThreadPoolExecutor:
    """The process-wide pool with ``workers`` threads (created on first use).

    Pools persist for the life of the process and are shared by every
    execution requesting the same worker count — no per-call pool spin-up
    or teardown.  Teardown is registered with ``atexit`` on first use.
    """
    global _pools_atexit
    workers = int(workers)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    with _pool_lock:
        if not _pools_atexit:
            atexit.register(shutdown_pools)
            _pools_atexit = True
        pool = _pools.get(workers)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix=f"repro-rt{workers}"
            )
            _pools[workers] = pool
            _log.debug("created thread pool with %d workers", workers)
        return pool


def pool_info() -> dict[int, int]:
    """``{workers: max_workers}`` of every live pool (for tests/telemetry)."""
    with _pool_lock:
        return {w: p._max_workers for w, p in _pools.items()}


def shutdown_pools() -> None:
    """Shut down and drop every pooled executor."""
    with _pool_lock:
        pools = list(_pools.values())
        _pools.clear()
    for p in pools:
        p.shutdown(wait=True)


def _drop_pools_after_fork() -> None:  # pragma: no cover - fork hook
    """A forked child inherits the pool dict but none of the threads.

    Dropping the dead executors (without joining their nonexistent
    threads) keeps the child from ever dispatching onto them, and
    resetting the atexit flag lets the child register its own teardown.
    """
    global _pool_lock, _pools_atexit
    _pool_lock = threading.Lock()
    _pools.clear()
    _pools_atexit = False


os.register_at_fork(after_in_child=_drop_pools_after_fork)


# ---------------------------------------------------------------------- #
# Lowering: CompiledPlan -> TaskGraph
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Task:
    """One schedulable unit: a half-open ``[lo, hi)`` range of one kind.

    Staged kinds: ``gather_a``/``gather_b`` (operand block ranges),
    ``product`` (step ranges over ``r``), ``scatter`` (destination block
    ranges).  Fused kinds: ``fproduct`` (a step range streamed through the
    per-worker buffer set ``slot``), ``reduce`` (destination block ranges
    folding the worker ``Cacc`` slabs into ``C``).  Tiled kind: ``tile``
    (an fproduct range whose product/scatter phase streams row strips
    through the slot's bounded RAM window).  All: ``fringe`` (peel-fringe
    indices).
    """

    kind: str
    lo: int
    hi: int
    slot: int = 0


@dataclass(frozen=True)
class TaskGraph:
    """The lowered schedule of one plan for one worker count and mode.

    ``phases`` are executed in order with a barrier between consecutive
    phases; tasks inside a phase are mutually independent (disjoint
    writes) and may run concurrently.
    """

    key: tuple
    workers: int
    fusion: str
    phases: tuple[tuple[Task, ...], ...]
    gathered: bool = True

    @property
    def n_tasks(self) -> int:
        return sum(len(p) for p in self.phases)

    @property
    def n_slots(self) -> int:
        """Worker-buffer sets the fused/tiled pipelines need (0 staged)."""
        return sum(
            1 for p in self.phases for t in p
            if t.kind in ("fproduct", "tile")
        )


def _split(total: int, parts: int) -> list[tuple[int, int]]:
    """Balanced half-open ranges covering ``[0, total)`` (no empty ranges)."""
    parts = max(1, min(parts, total))
    step, rem = divmod(total, parts)
    ranges, lo = [], 0
    for i in range(parts):
        hi = lo + step + (1 if i < rem else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


_graph_lock = threading.Lock()
_graphs: dict[tuple, TaskGraph] = {}
_GRAPH_CACHE_MAX = 256


def lower_plan(
    cplan: CompiledPlan,
    workers: int = 1,
    fusion: str | None = None,
    gathered: bool = True,
) -> TaskGraph:
    """Lower a compiled plan to its task DAG for ``workers`` workers.

    ``fusion`` defaults to the mode resolved at compile time
    (``cplan.fusion``); pass ``"staged"``, ``"fused"`` or ``"tiled"``
    to override.
    ``gathered`` (fused mode only) controls whether the graph stages the
    operand blocks into contiguous slabs first — the NumPy group-streaming
    pipeline wants them (its combos are coefficient-GEMM strips over the
    slabs); a leaf that packs operands itself (BLIS) does not.
    Pure metadata (index ranges only — no arrays), memoized per
    ``(plan key, workers, fusion, gathered)``.
    """
    workers = int(workers)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    fusion = validate_resolved_fusion(
        cplan.fusion if fusion is None else fusion
    )
    gathered = bool(gathered) if fusion == "fused" else True
    key = (cplan.key, workers, fusion, gathered)
    with _graph_lock:
        hit = _graphs.get(key)
        if hit is not None:
            return hit

    Pa = len(cplan.a_table)
    Pb = len(cplan.b_table)
    Pc = len(cplan.c_table)
    R = cplan.rank_total
    phases: list[tuple[Task, ...]] = []
    if cplan.peel_plan.has_core:
        if fusion == "staged" or gathered:
            gather = [Task("gather_a", lo, hi) for lo, hi in _split(Pa, workers)]
            gather += [Task("gather_b", lo, hi) for lo, hi in _split(Pb, workers)]
            phases.append(tuple(gather))
        if fusion == "staged":
            phases.append(
                tuple(Task("product", lo, hi) for lo, hi in _split(R, workers))
            )
            phases.append(
                tuple(Task("scatter", lo, hi) for lo, hi in _split(Pc, workers))
            )
        else:
            kind = "tile" if fusion == "tiled" else "fproduct"
            ranges = _split(R, workers)
            phases.append(
                tuple(
                    Task(kind, lo, hi, slot=i)
                    for i, (lo, hi) in enumerate(ranges)
                )
            )
            if len(ranges) > 1:
                # Workers accumulated into private Cacc slabs; fold them
                # into C over write-disjoint destination-block ranges.
                phases.append(
                    tuple(Task("reduce", lo, hi) for lo, hi in _split(Pc, workers))
                )
    fringes = [
        Task("fringe", i, i + 1)
        for i, f in enumerate(cplan.peel_plan.fringes)
        if 0 not in f.shape
    ]
    if fringes:
        phases.append(tuple(fringes))
    graph = TaskGraph(
        key=key, workers=workers, fusion=fusion,
        phases=tuple(phases), gathered=gathered,
    )
    with _graph_lock:
        graph = _graphs.setdefault(key, graph)
        while len(_graphs) > _GRAPH_CACHE_MAX:
            _graphs.pop(next(iter(_graphs)))
    return graph


# ---------------------------------------------------------------------- #
# Execution bindings
# ---------------------------------------------------------------------- #
def _coef_matmul(coef, X2, out, L) -> None:
    """``out = coef @ X2`` with batch-invariant bits.

    With a leading batch the slab columns concatenate ``L`` per-element
    column blocks; a single wide GEMM can select a different BLAS kernel
    than the unbatched call and change the k-summation order (~1 ulp,
    observed on small-``m`` coefficient operators).  Slicing per batch
    element keeps every GEMM's ``(m, k, n)`` identical to the 2-D run —
    only ``lda``/``ldc`` differ, which BLAS accumulation order does not
    depend on — so batched execution stays bitwise-equal to running each
    element alone.
    """
    if L == 1:
        np.matmul(coef, X2, out=out)
        return
    cols = X2.shape[1] // L
    for b in range(L):
        sl = slice(b * cols, (b + 1) * cols)
        np.matmul(coef, X2[:, sl], out=out[:, sl])


class _GatheredSlabs:
    """Shared operand-slab machinery of the slab-staging bindings.

    Provides the ``A~``/``B~`` slab setup and the gather task bodies, so
    the staged and grouped-fused pipelines stage operands through one
    code path and cannot diverge.  Slot-free (``__slots__ = ()``) so it
    composes with any slotted binding; subclasses declare the field
    names.
    """

    __slots__ = ()

    def _init_slabs(self, ws) -> None:
        self.Ablk = ws["Ablk"]
        self.Bblk = ws["Bblk"]
        self.A2 = self.Ablk.reshape(len(self.Av), -1)
        self.B2 = self.Bblk.reshape(len(self.Bv), -1)

    def _gather(self, task: Task) -> bool:
        """Run a gather task; False when ``task`` is another kind."""
        if task.kind == "gather_a":
            np.stack(self.Av[task.lo : task.hi], out=self.Ablk[task.lo : task.hi])
        elif task.kind == "gather_b":
            np.stack(self.Bv[task.lo : task.hi], out=self.Bblk[task.lo : task.hi])
        else:
            return False
        return True


class _StagedBinding(_GatheredSlabs):
    """Binds a staged task graph to concrete operand views and arena slabs.

    All reshapes below are views of C-contiguous arena slabs, and every
    matmul writes through ``out=`` — the hot path performs no temporary
    allocation.
    """

    __slots__ = (
        "cplan", "Av", "Bv", "Cv", "L",
        "Ablk", "Bblk", "A2", "B2", "S2", "T2", "S3", "T3", "M3", "M2",
        "upd", "upd2",
    )

    def __init__(self, cplan, Ac, Bc, Cc, bm, bk, bn, ws):
        self.cplan = cplan
        self.Av = cplan.block_views(Ac, "A", bm, bk)
        self.Bv = cplan.block_views(Bc, "B", bk, bn)
        self.Cv = cplan.block_views(Cc, "C", bm, bn)
        self.L = math.prod(Ac.shape[:-2])
        R = cplan.rank_total
        self._init_slabs(ws)
        S, T, M = ws["S"], ws["T"], ws["M"]
        self.S2 = S.reshape(R, -1)
        self.T2 = T.reshape(R, -1)
        self.S3 = S.reshape(-1, bm, bk)
        self.T3 = T.reshape(-1, bk, bn)
        self.M3 = M.reshape(-1, bm, bn)
        self.M2 = M.reshape(R, -1)
        self.upd = ws["upd"]
        self.upd2 = self.upd.reshape(self.upd.shape[0], -1)

    def run(self, task: Task) -> None:
        kind, lo, hi = task.kind, task.lo, task.hi
        if self._gather(task):
            pass
        elif kind == "product":
            cp, L = self.cplan, self.L
            _coef_matmul(cp.Ut[lo:hi], self.A2, self.S2[lo:hi], L)
            _coef_matmul(cp.Vt[lo:hi], self.B2, self.T2[lo:hi], L)
            np.matmul(
                self.S3[lo * L : hi * L],
                self.T3[lo * L : hi * L],
                out=self.M3[lo * L : hi * L],
            )
        elif kind == "scatter":
            _coef_matmul(self.cplan.W[lo:hi], self.M2, self.upd2[lo:hi],
                         self.L)
            for p in range(lo, hi):
                self.Cv[p] += self.upd[p]
        else:  # pragma: no cover - lowering emits only the kinds above
            raise ValueError(f"unknown task kind {kind!r}")


class _FusedBindingBase:
    """Shared per-worker accumulator machinery of the fused bindings.

    Slot ``i`` of the per-worker slabs (and, with several slots,
    ``Cacc``) belongs exclusively to fproduct task ``i``, so the
    streaming pipelines run lock-free; :meth:`_reduce` folds the private
    ``Cacc`` accumulators into ``C`` in deterministic slot order (both
    fused pipelines share this fold, so they cannot diverge).
    """

    __slots__ = ("cplan", "steps", "Av", "Bv", "Cv", "Cacc", "n_slots")

    def __init__(self, cplan, Ac, Bc, Cc, bm, bk, bn, ws, n_slots):
        self.cplan = cplan
        self.steps = cplan.steps
        self.Av = cplan.block_views(Ac, "A", bm, bk)
        self.Bv = cplan.block_views(Bc, "B", bk, bn)
        self.Cv = cplan.block_views(Cc, "C", bm, bn)
        self.n_slots = n_slots
        if n_slots > 1:
            self.Cacc = ws["Cacc"]
            self.Cacc[...] = 0.0
        else:
            self.Cacc = None

    def _slot_target(self, slot: int):
        """The C views this slot accumulates into (private when shared)."""
        return self.Cv if self.Cacc is None else self.Cacc[slot]

    def _reduce(self, task: Task) -> None:
        for p in range(task.lo, task.hi):
            v = self.Cv[p]
            for w in range(self.n_slots):
                v += self.Cacc[w][p]


class _FusedBinding(_FusedBindingBase):
    """Binds an *ungathered* fused graph to views + per-worker buffers.

    The pipeline for custom leaves (BLIS packs its own operands): each
    fproduct task walks its product range, the leaf gathering every
    product's A/B-combos straight from the block views into the slot's
    recycled ``S``/``T``/``M`` buffers.
    """

    __slots__ = ("S", "T", "M", "leaf")

    def __init__(self, cplan, Ac, Bc, Cc, bm, bk, bn, ws, n_slots, leaf):
        super().__init__(cplan, Ac, Bc, Cc, bm, bk, bn, ws, n_slots)
        self.S = ws.buffers.get("S")
        self.T = ws.buffers.get("T")
        self.M = ws.buffers.get("M")
        self.leaf = leaf

    def run(self, task: Task) -> None:
        kind = task.kind
        if kind == "fproduct":
            slot = task.slot
            Ct = self._slot_target(slot)
            S = None if self.S is None else self.S[slot]
            T = None if self.T is None else self.T[slot]
            M = None if self.M is None else self.M[slot]
            leaf, Av, Bv = self.leaf, self.Av, self.Bv
            for step in self.steps[task.lo : task.hi]:
                leaf.product(step, Av, Bv, Ct, S, T, M, slot)
        elif kind == "reduce":
            self._reduce(task)
        else:  # pragma: no cover - lowering emits only the kinds above
            raise ValueError(f"unknown task kind {kind!r}")


class _GroupedFusedBinding(_FusedBindingBase, _GatheredSlabs):
    """Binds a *gathered* fused graph: the NumPy group-streaming pipeline.

    Gather tasks stage the operand blocks into contiguous ``A~``/``B~``
    slabs (exactly like the staged pipeline — O(blocks of A/B), not
    O(R)).  Each fproduct task then streams its product range in groups
    of ``group``: the group's A/B-combos come from short coefficient-GEMM
    strips (``S_g = Ut[rows] @ A~``) written into the slot's recycled
    buffers, the group's products from one batched matmul, and every
    product is scatter-accumulated into C (or the slot's private
    ``Cacc``) while hot — only O(workers · group) product buffers are
    ever live.
    """

    __slots__ = ("L", "group", "Ablk", "Bblk", "A2", "B2",
                 "S", "T", "M", "S2", "T2", "S3", "T3", "M3", "scratch")

    def __init__(self, cplan, Ac, Bc, Cc, bm, bk, bn, ws, n_slots, group):
        super().__init__(cplan, Ac, Bc, Cc, bm, bk, bn, ws, n_slots)
        self.L = math.prod(Ac.shape[:-2])
        self.group = group
        self._init_slabs(ws)
        S, T, M = ws["S"], ws["T"], ws["M"]
        self.S, self.T, self.M = S, T, M
        self.S2 = [s.reshape(group, -1) for s in S]
        self.T2 = [t.reshape(group, -1) for t in T]
        self.S3 = [s.reshape(-1, bm, bk) for s in S]
        self.T3 = [t.reshape(-1, bk, bn) for t in T]
        self.M3 = [m_.reshape(-1, bm, bn) for m_ in M]
        # Per-slot dtype-matched scale strip for non-±1 scatter
        # coefficients; allocated only for plans that have them.
        self.scratch = ws.buffers.get("scratch")

    def run(self, task: Task) -> None:
        kind = task.kind
        if self._gather(task):
            pass
        elif kind == "fproduct":
            slot = task.slot
            Ct = self._slot_target(slot)
            cp, L, g = self.cplan, self.L, self.group
            M = self.M[slot]
            sc = None if self.scratch is None else self.scratch[slot]
            S2, T2 = self.S2[slot], self.T2[slot]
            S3, T3, M3 = self.S3[slot], self.T3[slot], self.M3[slot]
            for lo in range(task.lo, task.hi, g):
                hi = min(lo + g, task.hi)
                w = hi - lo
                _coef_matmul(cp.Ut[lo:hi], self.A2, S2[:w], L)
                _coef_matmul(cp.Vt[lo:hi], self.B2, T2[:w], L)
                np.matmul(S3[: w * L], T3[: w * L], out=M3[: w * L])
                for j in range(w):
                    _scatter_product(self.steps[lo + j], M[j], Ct, sc)
        elif kind == "reduce":
            self._reduce(task)
        else:  # pragma: no cover - lowering emits only the kinds above
            raise ValueError(f"unknown task kind {kind!r}")


def _scatter_strip(step, Ms, Ct, scratch, rows) -> None:
    """Row-strip twin of :func:`repro.kernels.reference.scatter_accumulate`.

    Accumulates one product's ``rows`` strip into the matching rows of
    its C tiles, with the same ±1 fast paths and dtype-matched scratch
    scaling.  Elementwise adds split by rows are bitwise-identical to
    the full-block accumulate, which is one half of the tiled pipeline's
    exactness argument (the other is the row-invariant batched matmul).
    """
    for i, w in step.c_terms:
        v = Ct[i][..., rows, :]
        if w == 1.0:
            v += Ms
        elif w == -1.0:
            v -= Ms
        elif scratch is not None:
            np.multiply(Ms, w, out=scratch)
            v += scratch
        else:
            v += w * Ms


class _TiledBinding(_FusedBindingBase, _GatheredSlabs):
    """Binds a tiled graph: the grouped-fused pipeline, out-of-core.

    Identical arithmetic to :class:`_GroupedFusedBinding` — same gather
    into contiguous slabs, same group boundaries, same full-shape
    coefficient GEMMs against the whole ``A~``/``B~`` slabs, same
    slot-order accumulation — with two relocations that change no bits:

    * the slab-scale buffers (``Ablk``/``Bblk``, the group ``S``/``T``
      strips, and the multi-worker ``Cacc``) live in mmap-spilled arena
      storage instead of RAM, and
    * the batched product matmul + scatter-accumulate stream over the
      Morton block's row strips (:func:`repro.core.tiles.strip_bounds`),
      so only a ``tile_rows``-high ``M`` window (plus scratch) is ever
      RAM-resident.

    The strip split is applied only where it is bitwise-safe: batched
    ``np.matmul`` row-splitting reproduces the full call's rows exactly
    for every strip height >= 2 (pinned by the tiled property suite),
    but a single-row strip takes a GEMV-style BLAS kernel with a
    different k-accumulation order — so strips are **never one row
    high** (:func:`repro.core.tiles.clamp_tile_rows` and the tail
    rebalance in :func:`repro.core.tiles.strip_bounds` guarantee it).
    The scatter is elementwise and splits trivially.  ``tile_rows ==
    bm`` degenerates to the fused pipeline with spilled slabs.
    """

    __slots__ = ("L", "group", "tile_rows", "strips",
                 "Ablk", "Bblk", "A2", "B2",
                 "S", "T", "M", "S2", "T2", "S3", "T3", "M3", "scratch")

    def __init__(self, cplan, Ac, Bc, Cc, bm, bk, bn, ws, n_slots, group,
                 tile_rows):
        super().__init__(cplan, Ac, Bc, Cc, bm, bk, bn, ws, n_slots)
        self.L = math.prod(Ac.shape[:-2])
        self.group = group
        self.tile_rows = tile_rows
        self.strips = strip_bounds(bm, tile_rows)
        self._init_slabs(ws)
        S, T, M = ws["S"], ws["T"], ws["M"]
        self.S, self.T, self.M = S, T, M
        self.S2 = [s.reshape(group, -1) for s in S]
        self.T2 = [t.reshape(group, -1) for t in T]
        self.S3 = [s.reshape(-1, bm, bk) for s in S]
        self.T3 = [t.reshape(-1, bk, bn) for t in T]
        self.M3 = [m_.reshape(-1, tile_rows, bn) for m_ in M]
        self.scratch = ws.buffers.get("scratch")

    def run(self, task: Task) -> None:
        kind = task.kind
        if self._gather(task):
            pass
        elif kind == "tile":
            slot = task.slot
            Ct = self._slot_target(slot)
            cp, L, g = self.cplan, self.L, self.group
            M = self.M[slot]
            sc_full = None if self.scratch is None else self.scratch[slot]
            S2, T2 = self.S2[slot], self.T2[slot]
            S3, T3, M3 = self.S3[slot], self.T3[slot], self.M3[slot]
            for lo in range(task.lo, task.hi, g):
                hi = min(lo + g, task.hi)
                w = hi - lo
                _coef_matmul(cp.Ut[lo:hi], self.A2, S2[:w], L)
                _coef_matmul(cp.Vt[lo:hi], self.B2, T2[:w], L)
                for r0, r1 in self.strips:
                    h = r1 - r0
                    np.matmul(S3[: w * L, r0:r1, :], T3[: w * L],
                              out=M3[: w * L, :h, :])
                    rows = slice(r0, r1)
                    sc = None if sc_full is None else sc_full[..., :h, :]
                    for j in range(w):
                        _scatter_strip(self.steps[lo + j],
                                       M[j][..., :h, :], Ct, sc, rows)
        elif kind == "reduce":
            self._reduce(task)
        else:  # pragma: no cover - lowering emits only the kinds above
            raise ValueError(f"unknown task kind {kind!r}")


class _FringeBinding:
    """Binds fringe tasks to the full operands (no arena buffers needed)."""

    __slots__ = ("fringes", "A", "B", "C", "leaf")

    def __init__(self, fringes, A, B, C, leaf=NUMPY_LEAF):
        self.fringes = fringes
        self.A, self.B, self.C = A, B, C
        self.leaf = leaf

    def run(self, task: Task) -> None:
        f = self.fringes[task.lo]
        if self.A.ndim == 3 and not self.leaf.supports_batch:
            for b in range(self.A.shape[0]):
                self.leaf.fringe(f, self.A[b], self.B[b], self.C[b])
        else:
            self.leaf.fringe(f, self.A, self.B, self.C)


def _run_tasks(binding, tasks) -> None:
    # A non-finite operand makes FMM's operand sums and C updates meet
    # Inf - Inf, which numpy flags as "invalid".  The NaN that comes out
    # is the documented result (see multiply's Notes), so the runtime's
    # coefficient products stay as quiet as A @ B on the same operands.
    # errstate is per thread, hence per task list, in every worker.
    with np.errstate(invalid="ignore"):
        for t in tasks:
            binding.run(t)


def _run_phase(binding, tasks, pool) -> None:
    inline = pool is None or len(tasks) == 1
    with obs_trace.span("phase:" + tasks[0].kind, "phase",
                        tasks=len(tasks),
                        mode="inline" if inline else "pool"):
        if inline:
            _run_tasks(binding, tasks)
        else:
            # list() is the barrier: it drains the map and re-raises worker
            # exceptions before the next phase may start.
            list(pool.map(lambda t: _run_tasks(binding, (t,)), tasks))


# ---------------------------------------------------------------------- #
# Workspace specs (mirrored by repro.model.perfmodel.predict_workspace_bytes)
# ---------------------------------------------------------------------- #
def _staged_workspace_spec(cplan, lead, bm, bk, bn):
    dt = cplan.dtype
    R = cplan.rank_total
    return {
        "Ablk": ((len(cplan.a_table),) + lead + (bm, bk), dt),
        "Bblk": ((len(cplan.b_table),) + lead + (bk, bn), dt),
        "S": ((R,) + lead + (bm, bk), dt),
        "T": ((R,) + lead + (bk, bn), dt),
        "M": ((R,) + lead + (bm, bn), dt),
        "upd": ((len(cplan.c_table),) + lead + (bm, bn), dt),
    }


def _fused_workspace_spec(cplan, lead, bm, bk, bn, n_slots, needs):
    """Per-worker single-product buffers (the ungathered / leaf pipeline).

    Only the buffers the leaf declares in ``needs_buffers`` are
    allocated — a fully-fused kernel (BLIS abc: no ``M_r`` buffer at
    all) checks out nothing but its ``Cacc`` accumulators, so the
    reported peak matches the variant's semantics.
    """
    dt = cplan.dtype
    shapes = {
        "S": ((n_slots,) + lead + (bm, bk), dt),
        "T": ((n_slots,) + lead + (bk, bn), dt),
        "M": ((n_slots,) + lead + (bm, bn), dt),
    }
    spec = {name: shapes[name] for name in needs}
    if n_slots > 1:
        spec["Cacc"] = ((n_slots, len(cplan.c_table)) + lead + (bm, bn), dt)
    return spec


def _grouped_workspace_spec(cplan, lead, bm, bk, bn, n_slots, group):
    """Operand slabs + per-worker group buffers (the NumPy fused pipeline)."""
    dt = cplan.dtype
    spec = {
        "Ablk": ((len(cplan.a_table),) + lead + (bm, bk), dt),
        "Bblk": ((len(cplan.b_table),) + lead + (bk, bn), dt),
        "S": ((n_slots, group) + lead + (bm, bk), dt),
        "T": ((n_slots, group) + lead + (bk, bn), dt),
        "M": ((n_slots, group) + lead + (bm, bn), dt),
    }
    if cplan.has_nonunit_c_coeffs:
        # Per-slot scale strip: keeps the non-±1 scatter-accumulate
        # dtype-matched and allocation-free (see scatter_accumulate).
        spec["scratch"] = ((n_slots,) + lead + (bm, bn), dt)
    if n_slots > 1:
        spec["Cacc"] = ((n_slots, len(cplan.c_table)) + lead + (bm, bn), dt)
    return spec


def _tiled_workspace_spec(cplan, lead, bm, bk, bn, n_slots, group,
                          tile_rows):
    """Spilled slabs + RAM strip window (the out-of-core tiled pipeline).

    Same shapes as :func:`_grouped_workspace_spec` except the product
    buffer ``M`` (and the scatter scratch) shrink from full blocks to
    ``tile_rows``-high strips, and every slab-scale buffer carries the
    ``"mmap"`` flag — the arena backs those with anonymous temp files
    and excludes them from the RAM meters, so a tiled execution's
    measured ``peak_workspace_bytes`` *is* the strip window
    (``predict_tile_window_bytes`` is its byte-exact model twin).
    """
    dt = cplan.dtype
    spec = {
        "Ablk": ((len(cplan.a_table),) + lead + (bm, bk), dt, "mmap"),
        "Bblk": ((len(cplan.b_table),) + lead + (bk, bn), dt, "mmap"),
        "S": ((n_slots, group) + lead + (bm, bk), dt, "mmap"),
        "T": ((n_slots, group) + lead + (bk, bn), dt, "mmap"),
        "M": ((n_slots, group) + lead + (tile_rows, bn), dt),
    }
    if cplan.has_nonunit_c_coeffs:
        spec["scratch"] = ((n_slots,) + lead + (tile_rows, bn), dt)
    if n_slots > 1:
        spec["Cacc"] = (
            (n_slots, len(cplan.c_table)) + lead + (bm, bn), dt, "mmap"
        )
    return spec


def _tile_window_bytes(cplan, lead_elems, bn, n_slots, group, tile_rows):
    """RAM bytes of the tiled strip window for one core execution.

    Byte-exact twin of the non-``"mmap"`` entries of
    :func:`_tiled_workspace_spec` (and of the model's
    ``predict_tile_window_bytes``): the ``M`` strip buffers plus, for
    plans with non-±1 scatter coefficients, one scratch strip per slot.
    """
    elems = n_slots * group * lead_elems * tile_rows * bn
    if cplan.has_nonunit_c_coeffs:
        elems += n_slots * lead_elems * tile_rows * bn
    return elems * cplan.dtype.itemsize


def _tiled_io_stats(cplan, lead_elems, bm, bk, bn, n_slots, group,
                    tile_rows, ranges):
    """Analytic ``(io_bytes, n_tiles)`` of one tiled core execution.

    ``io_bytes`` counts the logical bytes moved between the RAM window
    and the mmap-spilled buffers: the gather's slab writes, each group's
    coefficient-GEMM slab reads and ``S``/``T`` writes, the strip loop's
    ``S``-row and per-strip ``T``-group reads, and (multi-worker) the
    spilled ``Cacc``'s zero-fill, scatter read-modify-writes and reduce
    read.  ``n_tiles`` is the number of streamed strips (one per group x
    strip).  Both are deterministic functions of the task graph and the
    shapes.
    """
    item = cplan.dtype.itemsize
    L = lead_elems
    slab = (len(cplan.a_table) * bm * bk
            + len(cplan.b_table) * bk * bn) * L * item
    n_strips = len(strip_bounds(bm, tile_rows))
    io = slab  # gather writes both operand slabs once
    n_tiles = 0
    steps = cplan.steps
    for lo, hi in ranges:
        for glo in range(lo, hi, group):
            w = min(glo + group, hi) - glo
            s_bytes = w * L * bm * bk * item
            t_bytes = w * L * bk * bn * item
            # Coefficient GEMMs read both slabs and write the group S/T;
            # the strip loop then reads every S row once and the T group
            # once per strip.
            io += slab + 2 * s_bytes + (1 + n_strips) * t_bytes
            n_tiles += n_strips
        if n_slots > 1:
            # Scatter read-modify-writes the slot's spilled Cacc tiles.
            writes = sum(len(s.c_terms) for s in steps[lo:hi])
            io += 2 * writes * L * bm * bn * item
    if n_slots > 1:
        cacc = n_slots * len(cplan.c_table) * L * bm * bn * item
        io += 2 * cacc  # zero-fill + the reduce fold's read
    return io, n_tiles


# ---------------------------------------------------------------------- #
# Execution reports
# ---------------------------------------------------------------------- #
@dataclass
class ExecutionReport:
    """What one :func:`execute_plan` (or :func:`execute_blas`) call did.

    The BLAS route (``core_path="blas"``) runs the classical ``<1,1,1>``
    schedule as one ``np.matmul``: there is no plan interpretation, task
    graph or arena, so its report records that — see the per-field notes
    below.  It publishes like every other execution (thread-local
    :func:`last_report`, the report history, ``runtime.executions`` and
    the latency histogram).

    Every execution builds one, so the class is a plain dataclass: a
    frozen one sets each field through ``object.__setattr__``, about
    5 µs per report against 1 µs.  A published report is shared (the
    history, the service's job index, every job of a coalesced batch),
    so treat it as read-only.

    Attributes
    ----------
    shape, batch:
        Plan shape ``(m, k, n)`` and leading batch count (1 for 2-D).
    variant, fusion:
        The §4.1 write-back variant and the lowering mode that executed
        (``fusion`` may differ from the plan's when a leaf forces fused;
        it is ``"none"`` on the BLAS route, which lowers nothing).
    threads:
        Worker count requested (the BLAS route validates but cannot
        shard one call; ``worker_mode``/``n_workers`` say what ran).
    core_path:
        ``"graph"`` (task-graph pipeline), ``"steps"`` (serial per-step
        fallback), ``"blas"`` (the classical schedule as one
        ``np.matmul``) or ``"none"`` (pure-fringe problem).
    n_tasks:
        Tasks in the lowered graph (0 off the graph path).
    peak_workspace_bytes:
        High-water arena bytes this execution checked out — the measured
        memory footprint of its temporaries.  The serial per-step
        fallback (``core_path="steps"``) allocates outside the arena;
        its figure is the analytic live footprint of one product's
        S/T/M buffers instead, never a misleading zero.  The BLAS route
        follows the same analytic convention: 0 when ``np.matmul``
        writes the fresh result itself, ``m * n * itemsize * batch``
        (the product temporary) when it accumulates into a caller's
        ``C``.
    backend:
        Always ``"reference"``; kept because the perf ledger replays a
        report's configuration through :func:`execute_plan`.
    worker_mode:
        How the core's tasks actually executed: ``"serial"`` (inline, no
        pool — including every ``threads=1`` call, the per-step
        fallback and the BLAS route) or ``"threads"`` (shared thread
        pool).  ``"serial"`` at ``threads > 1`` when the core could not
        shard (e.g. a pure-fringe problem or one BLAS call).
    n_workers:
        Workers the executing pool used (1 when ``worker_mode="serial"``).
    ipc_bytes:
        Always 0; kept because the perf ledger reads it.
    schedule:
        The plan's schedule signature (e.g. ``"<2,2,2>@2"``; the
        classical schedule signs ``"classical@1"`` whether it ran on the
        BLAS route or through the task graph) — the key the report
        history and wisdom seeding aggregate on.  Empty for reports
        built without a plan.
    dtype:
        The plan compute dtype name (``"float64"``, ...).
    duration_s:
        Wall-clock seconds for the whole ``execute_plan`` (or
        ``execute_blas``) call; the report-history percentiles
        aggregate this.
    n_chunks:
        ``_run_core`` invocations this call made: 1 for a 2-D multiply,
        the chunk count for a batched stack.  One report always covers
        the *whole* call — ``peak_workspace_bytes`` is high-watered
        across chunks — so batched callers never see a single chunk's
        numbers.
    io_bytes:
        Logical bytes the tiled lowering moved between the RAM strip
        window and the mmap-spilled buffers (analytic — see
        ``_tiled_io_stats``; summed across chunks).  0 off the tiled
        path.
    n_tiles:
        Row strips the tiled lowering streamed (one per product group x
        Morton strip; summed across chunks).  0 off the tiled path.
    tile_window_bytes:
        RAM bytes of the tiled strip window — the byte-exact twin of
        ``predict_tile_window_bytes`` and the bound the measured
        ``peak_workspace_bytes`` satisfies on the tiled path
        (high-watered across chunks).  0 off the tiled path.
    """

    shape: tuple[int, int, int]
    batch: int
    variant: str
    fusion: str
    threads: int
    core_path: str
    n_tasks: int
    peak_workspace_bytes: int
    backend: str = "reference"
    worker_mode: str = "serial"
    n_workers: int = 1
    ipc_bytes: int = 0
    schedule: str = ""
    dtype: str = "float64"
    duration_s: float = 0.0
    n_chunks: int = 1
    io_bytes: int = 0
    n_tiles: int = 0
    tile_window_bytes: int = 0


_report_tls = threading.local()


def last_report() -> ExecutionReport | None:
    """The :class:`ExecutionReport` of this thread's most recent
    ``execute_plan``.

    Thread-local on purpose: concurrent executions each read back their
    own report, never a neighbor's.  That same property makes it the
    *wrong* API across threads — a service client that submitted a job
    and reads ``last_report()`` from its own thread observes whatever
    that thread last executed (usually nothing), not its job.  Per-job
    reports are routed exclusively through the bounded history instead:
    the serving layer records each job's report under its job id
    (``repro.obs.reports.record_job``), and ``JobHandle.report()`` /
    ``repro.obs.reports.report_for(job_id)`` look it up race-free.
    """
    return getattr(_report_tls, "report", None)


def _publish_report(report: ExecutionReport) -> None:
    _report_tls.report = report
    # The bounded history (repro.obs.reports) is the canonical record;
    # the thread-local above stays as the "my last call" convenience.
    obs_reports.history.record(report)
    _m_executions.inc()
    if report.duration_s > 0.0:
        _m_latency.observe(report.duration_s)
    if report.io_bytes > 0:
        _m_io_bytes.inc(report.io_bytes)


# ---------------------------------------------------------------------- #
# Execution
# ---------------------------------------------------------------------- #
def check_exec_shapes(cplan: CompiledPlan, A, B, C) -> None:
    """Validate (possibly batched) operands against a compiled plan."""
    m, k, n = cplan.shape
    if A.shape[-2:] != (m, k) or B.shape[-2:] != (k, n) or C.shape[-2:] != (m, n):
        raise ValueError(
            f"operands A {A.shape}, B {B.shape}, C {C.shape} do not match "
            f"compiled plan shape {(m, k, n)}"
        )
    if not (A.shape[:-2] == B.shape[:-2] == C.shape[:-2]):
        raise ValueError(
            f"batch dims disagree: A {A.shape}, B {B.shape}, C {C.shape}"
        )


def execute_blas(
    A: np.ndarray,
    B: np.ndarray,
    C: np.ndarray | None = None,
    *,
    dtype,
    variant: str = "abc",
    threads: int = 1,
    levels: int = 1,
) -> np.ndarray:
    """Run the classical ``<1,1,1>`` schedule as one ``np.matmul``.

    Returns a fresh ``A @ B`` (allocated by ``np.matmul``) when ``C`` is
    None, else accumulates ``C += A @ B`` in place, so a caller's ``C``
    must absorb ``dtype`` under ``same_kind`` casting (an integer ``C``
    belongs on :func:`execute_plan`'s dtype-preserving per-step path).
    Operands (2-D, or stacks whose batch dims broadcast) are cast to
    C-contiguous ``dtype`` exactly like the runtime's gather, so the
    result is bitwise-equal to interpreting the classical plan through
    :func:`execute_plan`; there is simply no plan, task graph, arena or
    pool to pay for.  ``levels`` is the
    schedule's depth (``<1,1,1>`` at any depth is one product).  Emits
    one ``blas`` span and publishes an :class:`ExecutionReport` with
    ``core_path="blas"`` (see its docstring for the per-field contract).
    """
    dtype = np.dtype(dtype)
    A = np.ascontiguousarray(A, dtype=dtype)
    B = np.ascontiguousarray(B, dtype=dtype)
    m, k = A.shape[-2:]
    n = B.shape[-1]
    lead = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    if C is not None and C.shape != lead + (m, n):
        # In-place += would silently broadcast a mis-shaped C.
        raise ValueError(f"C has shape {C.shape}, expected {lead + (m, n)}")
    return run_blas(A, B, C, blas_report_fields(
        (m, k, n), math.prod(lead), dtype, variant, threads, levels))


def blas_report_fields(shape, batch, dtype, variant, threads, levels) -> dict:
    """The fields every BLAS-route report of one call signature shares:
    everything but ``peak_workspace_bytes`` and ``duration_s``."""
    return {
        "shape": tuple(shape),
        "batch": int(batch),
        "variant": variant,
        "fusion": "none",
        "threads": threads,
        "core_path": "blas",
        "n_tasks": 0,
        "schedule": f"classical@{levels}",
        "dtype": dtype_name(dtype),
    }


def run_blas(A, B, C, report_fields: dict) -> np.ndarray:
    """:func:`execute_blas` for operands already C-contiguous in the
    compute dtype, with ``C`` (or ``None``) already shape-checked.

    ``report_fields`` comes from :func:`blas_report_fields`; the
    memoized ``engine="auto"`` route keeps it, so a repeat call costs
    one ``np.matmul`` plus one report.
    """
    t_start = time.perf_counter()
    if obs_trace.is_enabled():
        m, k, n = report_fields["shape"]
        with obs_trace.span("blas", "runtime", shape=f"{m}x{k}x{n}",
                            batch=report_fields["batch"]):
            C, peak = _matmul_into(A, B, C)
    else:
        C, peak = _matmul_into(A, B, C)
    _publish_report(ExecutionReport(
        **report_fields, peak_workspace_bytes=peak,
        duration_s=time.perf_counter() - t_start,
    ))
    return C


def _matmul_into(A, B, C):
    """``(C + A @ B, peak bytes)``: the fresh product, or ``C`` updated in
    place through one product temporary."""
    if C is None:
        return np.matmul(A, B), 0
    product = np.matmul(A, B)
    C += product
    return C, product.nbytes


def execute_plan(
    cplan: CompiledPlan,
    A: np.ndarray,
    B: np.ndarray,
    C: np.ndarray,
    threads: int = 1,
    vector_cap: int = DEFAULT_VECTOR_CAP,
    chunk_target: int = DEFAULT_CHUNK_TARGET,
    arena=None,
    leaf=None,
    fusion: str | None = None,
    backend: str | None = None,
    workers: str | None = None,
) -> np.ndarray:
    """Execute ``C += A @ B`` under a compiled plan on ``threads`` workers.

    Operands may be 2-D or batched ``(batch, rows, cols)`` stacks whose
    trailing dims match the plan.  ``threads=1`` runs the same task
    schedule inline; ``threads>1`` fans phases out over the shared thread
    pool.  ``leaf`` swaps the per-product kernel (the blocked engine
    passes :class:`repro.core.variants.BlisProductLeaf`); every custom
    leaf executes on the fused per-product pipeline — the staged slab
    phases are pure-NumPy math that would bypass its kernel.
    ``fusion`` overrides the plan's resolved lowering mode (benchmarks
    compare ``"staged"`` vs ``"fused"`` on the same plan this way).
    ``arena`` overrides the global workspace arena (tests).  ``backend``
    accepts only ``"reference"`` and ``workers`` only ``"threads"`` (the
    perf ledger passes both); any other value raises ``ValueError``.

    A ``C`` that cannot absorb the plan dtype under ``same_kind`` casting
    (e.g. an integer ``C``) runs the serial per-step loop, which keeps
    the operand dtype.

    Every call publishes an :class:`ExecutionReport` — including the
    measured peak workspace bytes and the executing worker mode —
    retrievable via :func:`last_report`.
    """
    threads = int(threads)
    if threads < 1:
        raise ValueError("threads must be >= 1")
    check_backend_workers(backend, workers)
    check_exec_shapes(cplan, A, B, C)
    arena = arena if arena is not None else workspace_arena
    leaf = NUMPY_LEAF if leaf is None else leaf
    pp = cplan.peel_plan
    fusion_eff = validate_resolved_fusion(
        cplan.fusion if fusion is None else fusion
    )
    if leaf is not NUMPY_LEAF:
        # The staged slab phases (and the per-step fallback) compute with
        # pure-NumPy math and would silently bypass a custom kernel, so
        # every custom leaf executes on the fused per-product pipeline —
        # its product() is always honored.
        fusion_eff = "fused"

    batch = int(math.prod(A.shape[:-2])) if A.ndim > 2 else 1
    core_path = "none"
    n_tasks = 0
    steps_bytes = 0
    io_bytes = 0
    n_tiles = 0
    tile_window = 0
    n_chunks = 0
    core_pooled = False
    t_start = time.perf_counter()
    # Entered/exited by hand so the body below keeps its indentation;
    # the span brackets exactly the metered region.
    exec_span = obs_trace.span(
        "execute_plan", "runtime",
        shape=f"{cplan.shape[0]}x{cplan.shape[1]}x{cplan.shape[2]}",
        batch=batch, fusion=fusion_eff, threads=threads,
    )
    exec_span.__enter__()
    meter = arena.start_meter()
    try:
        if pp.has_core:
            mp, kp, np_ = pp.core
            Mt, Kt, Nt = cplan.dims_total
            bm, bk, bn = mp // Mt, kp // Kt, np_ // Nt
            Ac = A[..., :mp, :kp]
            Bc = B[..., :kp, :np_]
            Cc = C[..., :mp, :np_]
            per_product = bm * bk + bk * bn + bm * bn
            # The arena path computes in the plan dtype; when C cannot
            # absorb that (e.g. integer operands fed straight to the
            # engine), the per-step loop preserves the operand dtype for
            # +-1-coefficient algorithms exactly like the classic engine
            # did.  Custom leaves own their dtype handling.
            on_graph = leaf is not NUMPY_LEAF or np.can_cast(
                cplan.dtype, C.dtype, casting="same_kind"
            )
            if on_graph and fusion_eff == "staged":
                on_graph = cplan.rank_total * per_product <= vector_cap
            if on_graph:
                core_path = "graph"
                # Only the built-in NumPy leaf takes the gathered
                # group-streaming shortcut; every custom leaf runs the
                # generic per-product pipeline so its kernel and
                # instrumentation are always honored.
                gathered = fusion_eff == "staged" or leaf is NUMPY_LEAF
                graph = lower_plan(cplan, threads, fusion_eff, gathered)
                n_tasks = graph.n_tasks
                pool = get_pool(threads) if threads > 1 else None
                core_pooled = threads > 1
                core_phases = [p for p in graph.phases if p[0].kind != "fringe"]
                n_slots = max(graph.n_slots, 1)
                group = min(effective_fused_group(), cplan.rank_total)
                if Ac.ndim == 3 and not leaf.supports_batch:
                    chunks = [(Ac[b], Bc[b], Cc[b]) for b in range(Ac.shape[0])]
                elif Ac.ndim == 3:
                    # Chunk so the live intermediates stay near
                    # chunk_target elements: staged slabs scale with
                    # R, fused/tiled group buffers with the group —
                    # the fused pipeline's memory bound holds for
                    # batched stacks too.
                    if fusion_eff == "staged":
                        work = per_product * cplan.rank_total
                    else:
                        work = per_product * group
                    chunk = max(
                        1, min(Ac.shape[0], chunk_target // max(work, 1))
                    )
                    chunks = [(Ac[i : i + chunk], Bc[i : i + chunk],
                               Cc[i : i + chunk])
                              for i in range(0, Ac.shape[0], chunk)]
                else:
                    chunks = [(Ac, Bc, Cc)]
                leaf.begin(n_slots)
                try:
                    for Ai, Bi, Ci in chunks:
                        io, nt, win = _run_core(
                            cplan, Ai, Bi, Ci, bm, bk, bn,
                            core_phases, pool, arena, fusion_eff,
                            gathered, n_slots, group, leaf,
                        )
                        io_bytes += io
                        n_tiles += nt
                        tile_window = max(tile_window, win)
                        n_chunks += 1
                finally:
                    leaf.finish()
                # Fringe C regions are mutually disjoint (see peeling), so
                # the fringe phase parallelizes like any other — unless
                # the leaf's instrumentation is not concurrency-safe.
                fb = _FringeBinding(pp.fringes, A, B, C, leaf)
                fringe_pool = pool if leaf.parallel_fringe else None
                for phase in (p for p in graph.phases if p[0].kind == "fringe"):
                    _run_phase(fb, phase, fringe_pool)
            else:
                core_path = "steps"
                _log.debug(
                    "per-step serial fallback for %s (vector cap or "
                    "non-castable C dtype)", cplan.shape,
                )
                # The fallback allocates its per-step S/T/M with plain
                # numpy, outside the metered arena; report its analytic
                # live footprint (one product's buffers) so the staged
                # fallback never shows as using *less* memory than the
                # graph pipelines.
                steps_bytes = (
                    per_product
                    * batch
                    * np.result_type(Ac, Bc).itemsize
                )
                _run_steps(cplan, Ac, Bc, Cc, bm, bk, bn)
        if core_path != "graph":
            fb = _FringeBinding(pp.fringes, A, B, C, leaf)
            for i, f in enumerate(pp.fringes):
                if 0 in f.shape:
                    continue
                fb.run(Task("fringe", i, i + 1))
    finally:
        peak = max(arena.finish_meter(meter), steps_bytes)
        exec_span.set(core_path=core_path, peak_bytes=peak)
        exec_span.__exit__(None, None, None)
    _publish_report(ExecutionReport(
        shape=cplan.shape,
        batch=batch,
        variant=cplan.variant,
        fusion=fusion_eff,
        threads=threads,
        core_path=core_path,
        n_tasks=n_tasks,
        peak_workspace_bytes=peak,
        worker_mode="threads" if core_pooled else "serial",
        n_workers=threads if core_pooled else 1,
        schedule=cplan.schedule_signature,
        dtype=dtype_name(cplan.dtype),
        duration_s=time.perf_counter() - t_start,
        n_chunks=max(n_chunks, 1),
        io_bytes=io_bytes,
        n_tiles=n_tiles,
        tile_window_bytes=tile_window,
    ))
    return C


def _run_core(
    cplan, Ac, Bc, Cc, bm, bk, bn, phases, pool, arena, fusion,
    gathered, n_slots, group, leaf,
):
    """Run one core (one batch chunk).

    Returns ``(io_bytes, n_tiles, tile_window_bytes)``, all 0 off the
    tiled path.
    """
    lead = Ac.shape[:-2]
    io = n_tiles = window = 0
    if fusion == "staged":
        ws = arena.acquire(
            (cplan.key, lead, "staged"),
            lambda: _staged_workspace_spec(cplan, lead, bm, bk, bn),
        )
        binding = _StagedBinding(cplan, Ac, Bc, Cc, bm, bk, bn, ws)
    elif fusion == "tiled":
        L = math.prod(lead) if lead else 1
        tile_rows = resolve_tile_rows(
            bm, bk, bn, n_slots, group, lead_elems=L,
            itemsize=cplan.dtype.itemsize,
            has_scratch=cplan.has_nonunit_c_coeffs,
        )
        ws = arena.acquire(
            (cplan.key, lead, "tiled", n_slots, group, tile_rows),
            lambda: _tiled_workspace_spec(
                cplan, lead, bm, bk, bn, n_slots, group, tile_rows
            ),
        )
        binding = _TiledBinding(
            cplan, Ac, Bc, Cc, bm, bk, bn, ws, n_slots, group, tile_rows
        )
        ranges = [(t.lo, t.hi) for p in phases for t in p
                  if t.kind == "tile"]
        io, n_tiles = _tiled_io_stats(
            cplan, L, bm, bk, bn, n_slots, group, tile_rows, ranges
        )
        window = _tile_window_bytes(cplan, L, bn, n_slots, group, tile_rows)
    elif gathered:
        ws = arena.acquire(
            (cplan.key, lead, "grouped", n_slots, group),
            lambda: _grouped_workspace_spec(
                cplan, lead, bm, bk, bn, n_slots, group
            ),
        )
        binding = _GroupedFusedBinding(
            cplan, Ac, Bc, Cc, bm, bk, bn, ws, n_slots, group
        )
    else:
        needs = tuple(leaf.needs_buffers)
        ws = arena.acquire(
            (cplan.key, lead, "fused", n_slots, needs),
            lambda: _fused_workspace_spec(
                cplan, lead, bm, bk, bn, n_slots, needs
            ),
        )
        binding = _FusedBinding(
            cplan, Ac, Bc, Cc, bm, bk, bn, ws, n_slots, leaf
        )
    try:
        for phase in phases:
            _run_phase(binding, phase, pool)
    finally:
        arena.release(ws)
    return io, n_tiles, window


# ---------------------------------------------------------------------- #
# Serial memory-light fallback (huge staged cores / non-castable C)
# ---------------------------------------------------------------------- #
def _run_steps(cplan, Ac, Bc, Cc, bm, bk, bn) -> None:
    """Per-product loop over the plan's gather lists (bounded workspace)."""
    Av = cplan.block_views(Ac, "A", bm, bk)
    Bv = cplan.block_views(Bc, "B", bk, bn)
    Cv = cplan.block_views(Cc, "C", bm, bn)
    lead = Ac.shape[:-2]
    dt = np.result_type(Ac, Bc)
    with np.errstate(invalid="ignore"):  # as in _run_tasks
        for s in cplan.steps:
            S = _vsum(s.a_terms, Av, lead + (bm, bk), dt)
            T = _vsum(s.b_terms, Bv, lead + (bk, bn), dt)
            M = S @ T
            for i, w in s.c_terms:
                if w == 1:
                    Cv[i] += M
                elif w == -1:
                    Cv[i] -= M
                else:
                    Cv[i] += w * M


def _vsum(terms, views, shape, dtype):
    """Sparse weighted sum of views; coefficients stay python floats so
    NEP-50 scalar promotion cannot upcast float32 intermediates."""
    out = None
    for i, c in terms:
        v = views[i]
        if out is None:
            if c == 1 or c == -1:
                out = v.astype(dtype, copy=True)
                if c == -1:
                    np.negative(out, out)
            else:
                out = v * c
        elif c == 1:
            out += v
        elif c == -1:
            out -= v
        else:
            out += c * v
    if out is None:
        out = np.zeros(shape, dtype=dtype)
    return out
