"""Variant-aware lowering runtime over the :class:`CompiledPlan` IR.

The paper's central implementation result is that fast matrix
multiplication pays off when the per-product operand sums and C-updates
are *fused* into the execution pipeline (the Naive/AB/ABC variant family
of §4.1) instead of materializing all R product temporaries.  This module
is that idea as **one runtime**: a compiled plan lowers to an ordered
list of phases in one of three modes, and every engine — the fast NumPy
``direct`` path, the instrumented simulated-BLIS ``blocked`` path, and
batched stacks — runs the same phases with a pluggable per-product *leaf
kernel*.

**Parallelism is BLAS's.**  The paper parallelizes FMM "with simple but
efficient data parallelism without the overhead of task parallelism".
Every leaf product here is one (possibly batched) ``np.matmul``, which
OpenBLAS already runs on all of its threads (``OPENBLAS_NUM_THREADS``
sets how many), so each execution runs its phases on one worker, in
order, with no pool, no per-worker accumulators and no reduction.  The
execution API keeps a ``threads`` keyword that accepts only 1 (see
:func:`repro.core.spec.check_threads`); the simulated-BLIS substrate
models the paper's 3rd-loop data parallelism itself
(:class:`repro.core.executor.BlockedEngine`).

**Staged lowering** (``fusion="staged"``) is the reference-framework
memory behavior, kept for small cores where batched matmuls beat kernel
dispatch overhead:

* **gather** copies the recursive blocks of ``A``/``B`` into contiguous
  arena slabs ``A~``/``B~``;
* **product** computes every coefficient product ``M_r`` via stacked
  matmuls (``S = Ut A~``, ``T = Vt B~``, ``M = S @ T``);
* **scatter** applies ``upd = W M`` to the destination blocks of ``C`` —
  all R products live simultaneously (O(R) slabs).

**Fused lowering** (``fusion="fused"``) is the paper's streaming
pipeline: the **fproduct** phase walks the products in small *groups*,
forming each group's A-combos and B-combos in recycled buffers,
computing the group's products, and immediately scatter-accumulating
each into its C tiles — O(group) live product buffers instead of O(R).
On the NumPy substrate the combos come from short coefficient-GEMM
strips against the gathered operand slabs (so the fused pipeline keeps
the staged pipeline's arithmetic efficiency while dropping its O(R)
``S``/``T``/``M``/``upd`` slabs); a leaf that packs its own operands
(BLIS) instead gathers each product's combos straight from the block
views.

**Tiled lowering** (``fusion="tiled"``) is the fused pipeline taken
out-of-core: the slab-scale buffers (operand slabs, group ``S``/``T``
strips) live in mmap-spilled arena storage
(:mod:`repro.core.workspace`), and the **tile** phase streams the
batched product matmul and the scatter-accumulate through Morton-ordered
row strips of a bounded RAM window (:mod:`repro.core.tiles`).  The
group boundaries, coefficient GEMMs and accumulation order are the
fused pipeline's exactly — relocating a buffer to mmap changes no bits,
and the strip-split batched matmul is row-invariant — so tiled results
are bitwise-equal to the fused ones while operands (which may themselves
be ``np.memmap``-backed) and slabs far larger than RAM stream through a
window the memory budget sizes
(:func:`repro.core.spec.effective_mem_budget_bytes`).

The §4.1 write-back variants are *lowering modes* of this one runtime:
``naive`` (materialize everything) lowers staged; ``ab``/``abc`` lower
fused once the staged slabs outgrow the cache
(:func:`repro.core.spec.resolve_fusion`).  On the BLIS substrate the leaf
kernel (:class:`repro.core.variants.BlisProductLeaf`) additionally fuses
the sums into packing (ab/abc) and the C update into the macro-kernel
(abc), exactly as the paper generates.

Each phase runs inside a ``phase:<kind>`` trace span (``gather_a``,
``gather_b``, ``product``, ``scatter``, ``fproduct``, ``tile``,
``fringe``), and every temporary lives in the recycling workspace arena
(:mod:`repro.core.workspace`), whose per-execution high-water meter feeds
``peak_workspace_bytes`` on the :class:`ExecutionReport` every execution
publishes (:func:`last_report`).

The classical ``<1,1,1>`` schedule — the §4.4 poly-algorithm's GEMM
fallback — has no operand sums to fuse and no workspace to avoid, so it
never enters the lowering: :func:`execute_blas` runs it as one
``np.matmul`` (``core_path="blas"``), bitwise-equal to interpreting the
classical plan.  The direct engine and ``multiply`` route classical
configurations there; :func:`execute_plan` itself still interprets
every plan it is handed.

Fallbacks (both documented limits of the arena path): staged cores whose
stacked intermediates exceed ``vector_cap`` run the memory-light
per-step loop, as does a destination dtype that cannot absorb the plan
dtype (e.g. integer ``C``).
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.core.compile import CompiledPlan
from repro.obs import metrics as obs_metrics, reports as obs_reports, trace as obs_trace
from repro.obs.logcfg import get_logger
from repro.core.spec import (
    DEFAULT_FUSED_GROUP,
    check_backend_workers,
    check_threads,
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
    "execute_plan",
    "execute_blas",
    "blas_report_fields",
    "run_blas",
    "last_report",
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


def shutdown_pools() -> None:
    """No-op: the runtime owns no worker pools.

    Kept because the perf ledger calls it between workloads.
    """


def _phase(kind: str):
    """The trace span one lowering phase runs in."""
    return obs_trace.span("phase:" + kind, "phase")


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

    Provides the ``A~``/``B~`` slab setup and the gather phases, so the
    staged, grouped-fused and tiled pipelines stage operands through one
    code path and cannot diverge.  Slot-free (``__slots__ = ()``) so it
    composes with any slotted binding; subclasses declare the field
    names.
    """

    __slots__ = ()

    def _init_slabs(self, cplan, Ac, Bc, bm, bk, bn, ws) -> None:
        self.cplan = cplan
        self.steps = cplan.steps
        self.L = math.prod(Ac.shape[:-2])
        self.Av = cplan.block_views(Ac, "A", bm, bk)
        self.Bv = cplan.block_views(Bc, "B", bk, bn)
        self.Ablk = ws["Ablk"]
        self.Bblk = ws["Bblk"]
        self.A2 = self.Ablk.reshape(len(self.Av), -1)
        self.B2 = self.Bblk.reshape(len(self.Bv), -1)

    def _gather(self) -> None:
        with _phase("gather_a"):
            np.stack(self.Av, out=self.Ablk)
        with _phase("gather_b"):
            np.stack(self.Bv, out=self.Bblk)


class _StagedBinding(_GatheredSlabs):
    """Binds the staged phases to concrete operand views and arena slabs.

    All reshapes below are views of C-contiguous arena slabs, and every
    matmul writes through ``out=`` — the hot path performs no temporary
    allocation.
    """

    __slots__ = (
        "cplan", "steps", "Av", "Bv", "Cv", "L",
        "Ablk", "Bblk", "A2", "B2", "S2", "T2", "S3", "T3", "M3", "M2",
        "upd", "upd2",
    )

    def __init__(self, cplan, Ac, Bc, Cc, bm, bk, bn, ws):
        self._init_slabs(cplan, Ac, Bc, bm, bk, bn, ws)
        self.Cv = cplan.block_views(Cc, "C", bm, bn)
        R = cplan.rank_total
        S, T, M = ws["S"], ws["T"], ws["M"]
        self.S2 = S.reshape(R, -1)
        self.T2 = T.reshape(R, -1)
        self.S3 = S.reshape(-1, bm, bk)
        self.T3 = T.reshape(-1, bk, bn)
        self.M3 = M.reshape(-1, bm, bn)
        self.M2 = M.reshape(R, -1)
        self.upd = ws["upd"]
        self.upd2 = self.upd.reshape(self.upd.shape[0], -1)

    def run(self) -> None:
        self._gather()
        cp, L = self.cplan, self.L
        with _phase("product"):
            _coef_matmul(cp.Ut, self.A2, self.S2, L)
            _coef_matmul(cp.Vt, self.B2, self.T2, L)
            np.matmul(self.S3, self.T3, out=self.M3)
        with _phase("scatter"):
            _coef_matmul(cp.W, self.M2, self.upd2, L)
            for v, u in zip(self.Cv, self.upd):
                v += u


class _FusedBinding:
    """Binds the *ungathered* fused phase to views + recycled buffers.

    The pipeline for custom leaves (BLIS packs its own operands): the
    fproduct phase walks every product, the leaf gathering each
    product's A/B-combos straight from the block views into the recycled
    ``S``/``T``/``M`` buffers it declared in ``needs_buffers``.
    """

    __slots__ = ("steps", "Av", "Bv", "Cv", "S", "T", "M", "leaf")

    def __init__(self, cplan, Ac, Bc, Cc, bm, bk, bn, ws, leaf):
        self.steps = cplan.steps
        self.Av = cplan.block_views(Ac, "A", bm, bk)
        self.Bv = cplan.block_views(Bc, "B", bk, bn)
        self.Cv = cplan.block_views(Cc, "C", bm, bn)
        self.S = ws.buffers.get("S")
        self.T = ws.buffers.get("T")
        self.M = ws.buffers.get("M")
        self.leaf = leaf

    def run(self) -> None:
        leaf, Av, Bv, Cv = self.leaf, self.Av, self.Bv, self.Cv
        S, T, M = self.S, self.T, self.M
        with _phase("fproduct"):
            for step in self.steps:
                leaf.product(step, Av, Bv, Cv, S, T, M)


class _GroupedFusedBinding(_GatheredSlabs):
    """Binds the *gathered* fused phases: the NumPy group-streaming pipeline.

    The gather phases stage the operand blocks into contiguous
    ``A~``/``B~`` slabs (exactly like the staged pipeline — O(blocks of
    A/B), not O(R)).  The fproduct phase then streams the products in
    groups of ``group``: the group's A/B-combos come from short
    coefficient-GEMM strips (``S_g = Ut[rows] @ A~``) written into
    recycled buffers, the group's products from one batched matmul, and
    every product is scatter-accumulated into C while hot — only
    O(group) product buffers are ever live.
    """

    __slots__ = ("cplan", "steps", "Av", "Bv", "Cv", "L", "group",
                 "Ablk", "Bblk", "A2", "B2",
                 "M", "S2", "T2", "S3", "T3", "M3", "scratch")

    def __init__(self, cplan, Ac, Bc, Cc, bm, bk, bn, ws, group,
                 m_rows=None):
        self._init_slabs(cplan, Ac, Bc, bm, bk, bn, ws)
        self.Cv = cplan.block_views(Cc, "C", bm, bn)
        self.group = group
        S, T, M = ws["S"], ws["T"], ws["M"]
        self.M = M
        self.S2 = S.reshape(group, -1)
        self.T2 = T.reshape(group, -1)
        self.S3 = S.reshape(-1, bm, bk)
        self.T3 = T.reshape(-1, bk, bn)
        self.M3 = M.reshape(-1, bm if m_rows is None else m_rows, bn)
        # Dtype-matched scale strip for non-±1 scatter coefficients;
        # allocated only for plans that have them.
        self.scratch = ws.buffers.get("scratch")

    def _groups(self):
        """Per group: ``(first product, width)`` after its coefficient
        GEMMs filled the ``S``/``T`` strips."""
        cp, L, g = self.cplan, self.L, self.group
        for lo in range(0, cp.rank_total, g):
            hi = min(lo + g, cp.rank_total)
            w = hi - lo
            _coef_matmul(cp.Ut[lo:hi], self.A2, self.S2[:w], L)
            _coef_matmul(cp.Vt[lo:hi], self.B2, self.T2[:w], L)
            yield lo, w

    def run(self) -> None:
        self._gather()
        L, M, Cv, sc = self.L, self.M, self.Cv, self.scratch
        S3, T3, M3 = self.S3, self.T3, self.M3
        with _phase("fproduct"):
            for lo, w in self._groups():
                np.matmul(S3[: w * L], T3[: w * L], out=M3[: w * L])
                for j in range(w):
                    _scatter_product(self.steps[lo + j], M[j], Cv, sc)


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


class _TiledBinding(_GroupedFusedBinding):
    """Binds the tiled phases: the grouped-fused pipeline, out-of-core.

    Identical arithmetic to :class:`_GroupedFusedBinding` — same gather
    into contiguous slabs, same group boundaries, same full-shape
    coefficient GEMMs against the whole ``A~``/``B~`` slabs, same
    accumulation order — with two relocations that change no bits:

    * the slab-scale buffers (``Ablk``/``Bblk`` and the group ``S``/``T``
      strips) live in mmap-spilled arena storage instead of RAM, and
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

    __slots__ = ("strips",)

    def __init__(self, cplan, Ac, Bc, Cc, bm, bk, bn, ws, group, tile_rows):
        super().__init__(cplan, Ac, Bc, Cc, bm, bk, bn, ws, group,
                         m_rows=tile_rows)
        self.strips = strip_bounds(bm, tile_rows)

    def run(self) -> None:
        self._gather()
        L, M, Cv, sc_full = self.L, self.M, self.Cv, self.scratch
        S3, T3, M3 = self.S3, self.T3, self.M3
        with _phase("tile"):
            for lo, w in self._groups():
                for r0, r1 in self.strips:
                    h = r1 - r0
                    np.matmul(S3[: w * L, r0:r1, :], T3[: w * L],
                              out=M3[: w * L, :h, :])
                    rows = slice(r0, r1)
                    sc = None if sc_full is None else sc_full[..., :h, :]
                    for j in range(w):
                        _scatter_strip(self.steps[lo + j],
                                       M[j][..., :h, :], Cv, sc, rows)


def _run_fringes(fringes, A, B, C, leaf) -> None:
    """The peel-fringe GEMMs (mutually disjoint C regions, see peeling)."""
    live = [f for f in fringes if 0 not in f.shape]
    if not live:
        return
    with _phase("fringe"):
        for f in live:
            if A.ndim == 3 and not leaf.supports_batch:
                for b in range(A.shape[0]):
                    leaf.fringe(f, A[b], B[b], C[b])
            else:
                leaf.fringe(f, A, B, C)


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


def _fused_workspace_spec(cplan, lead, bm, bk, bn, needs):
    """Single-product buffers (the ungathered / leaf pipeline).

    Only the buffers the leaf declares in ``needs_buffers`` are
    allocated — a fully-fused kernel (BLIS abc: no ``M_r`` buffer at
    all) checks out nothing, so the reported peak matches the variant's
    semantics.
    """
    dt = cplan.dtype
    shapes = {
        "S": (lead + (bm, bk), dt),
        "T": (lead + (bk, bn), dt),
        "M": (lead + (bm, bn), dt),
    }
    return {name: shapes[name] for name in needs}


def _grouped_workspace_spec(cplan, lead, bm, bk, bn, group, m_rows=None,
                            spill=()):
    """Operand slabs + group buffers (the NumPy fused pipeline).

    The tiled pipeline passes ``m_rows`` (its strip height, so ``M`` and
    the scratch shrink from full blocks to strips) and ``spill=("mmap",)``
    for the slab-scale buffers, which the arena then backs with
    anonymous temp files and excludes from the RAM meters — a tiled
    execution's measured ``peak_workspace_bytes`` *is* its strip window
    (``predict_tile_window_bytes`` is its byte-exact model twin).
    """
    dt = cplan.dtype
    rows = bm if m_rows is None else m_rows
    spec = {
        "Ablk": ((len(cplan.a_table),) + lead + (bm, bk), dt) + spill,
        "Bblk": ((len(cplan.b_table),) + lead + (bk, bn), dt) + spill,
        "S": ((group,) + lead + (bm, bk), dt) + spill,
        "T": ((group,) + lead + (bk, bn), dt) + spill,
        "M": ((group,) + lead + (rows, bn), dt),
    }
    if cplan.has_nonunit_c_coeffs:
        # Scale strip: keeps the non-±1 scatter-accumulate dtype-matched
        # and allocation-free (see scatter_accumulate).
        spec["scratch"] = (lead + (rows, bn), dt)
    return spec


def _tile_window_bytes(cplan, lead_elems, bn, group, tile_rows):
    """RAM bytes of the tiled strip window for one core execution.

    Byte-exact twin of the non-``"mmap"`` entries of the tiled workspace
    spec (and of the model's ``predict_tile_window_bytes``): the ``M``
    strip buffers plus, for plans with non-±1 scatter coefficients, one
    scratch strip.
    """
    elems = group * lead_elems * tile_rows * bn
    if cplan.has_nonunit_c_coeffs:
        elems += lead_elems * tile_rows * bn
    return elems * cplan.dtype.itemsize


def _tiled_io_stats(cplan, lead_elems, bm, bk, bn, group, tile_rows):
    """Analytic ``(io_bytes, n_tiles)`` of one tiled core execution.

    ``io_bytes`` counts the logical bytes moved between the RAM window
    and the mmap-spilled buffers: the gather's slab writes, each group's
    coefficient-GEMM slab reads and ``S``/``T`` writes, and the strip
    loop's ``S``-row and per-strip ``T``-group reads.  ``n_tiles`` is
    the number of streamed strips (one per group x strip).  Both are
    deterministic functions of the plan and the shapes.
    """
    item = cplan.dtype.itemsize
    L = lead_elems
    slab = (len(cplan.a_table) * bm * bk
            + len(cplan.b_table) * bk * bn) * L * item
    n_strips = len(strip_bounds(bm, tile_rows))
    io = slab  # gather writes both operand slabs once
    n_tiles = 0
    R = cplan.rank_total
    for glo in range(0, R, group):
        w = min(glo + group, R) - glo
        s_bytes = w * L * bm * bk * item
        t_bytes = w * L * bk * bn * item
        # Coefficient GEMMs read both slabs and write the group S/T; the
        # strip loop then reads every S row once and the T group once
        # per strip.
        io += slab + 2 * s_bytes + (1 + n_strips) * t_bytes
        n_tiles += n_strips
    return io, n_tiles


# ---------------------------------------------------------------------- #
# Execution reports
# ---------------------------------------------------------------------- #
@dataclass
class ExecutionReport:
    """What one :func:`execute_plan` (or :func:`execute_blas`) call did.

    The BLAS route (``core_path="blas"``) runs the classical ``<1,1,1>``
    schedule as one ``np.matmul``: there is no plan interpretation,
    lowering or arena, so its report records that — see the per-field
    notes below.  It publishes like every other execution (thread-local
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
    core_path:
        ``"graph"`` (the lowered arena pipeline), ``"steps"`` (serial
        per-step fallback), ``"blas"`` (the classical schedule as one
        ``np.matmul``) or ``"none"`` (pure-fringe problem).
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
    threads, worker_mode, backend, ipc_bytes:
        Always ``1``, ``"serial"``, ``"reference"`` and ``0``: every
        execution runs on one worker (BLAS threads the leaf products).
        Kept because the perf ledger replays a report's configuration
        through :func:`execute_plan` and reads them.
    schedule:
        The plan's schedule signature (e.g. ``"<2,2,2>@2"``; the
        classical schedule signs ``"classical@1"`` whether it ran on the
        BLAS route or through the lowering) — the key the report history
        aggregates on.  Empty for reports built
        without a plan.
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
    core_path: str
    peak_workspace_bytes: int
    threads: int = 1
    backend: str = "reference"
    worker_mode: str = "serial"
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
    :func:`execute_plan`; there is simply no plan, lowering or arena to
    pay for.  ``levels`` is the schedule's depth (``<1,1,1>`` at any
    depth is one product).  Emits one ``blas`` span and publishes an
    :class:`ExecutionReport` with ``core_path="blas"`` (see its
    docstring for the per-field contract).
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
        (m, k, n), math.prod(lead), dtype, variant, levels))


def blas_report_fields(shape, batch, dtype, variant, levels) -> dict:
    """The fields every BLAS-route report of one call signature shares:
    everything but ``peak_workspace_bytes`` and ``duration_s``."""
    return {
        "shape": tuple(shape),
        "batch": int(batch),
        "variant": variant,
        "fusion": "none",
        "core_path": "blas",
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


@dataclass
class _CoreStats:
    """What the core of one :func:`execute_plan` call did (report fields)."""

    core_path: str = "none"
    steps_bytes: int = 0
    io_bytes: int = 0
    n_tiles: int = 0
    tile_window_bytes: int = 0
    n_chunks: int = 0


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
    """Execute ``C += A @ B`` under a compiled plan.

    Operands may be 2-D or batched ``(batch, rows, cols)`` stacks whose
    trailing dims match the plan.  The plan's phases run in order on the
    calling thread; BLAS threads each leaf product.  ``leaf`` swaps the
    per-product kernel (the blocked engine passes
    :class:`repro.core.variants.BlisProductLeaf`); every custom leaf
    executes on the fused per-product pipeline — the staged slab phases
    are pure-NumPy math that would bypass its kernel.  ``fusion``
    overrides the plan's resolved lowering mode (benchmarks compare
    ``"staged"`` vs ``"fused"`` on the same plan this way).  ``arena``
    overrides the global workspace arena (tests).  ``threads`` accepts
    only 1, ``backend`` only ``"reference"`` and ``workers`` only
    ``"threads"`` (the perf ledger passes all three); any other value
    raises ``ValueError``.

    A ``C`` that cannot absorb the plan dtype under ``same_kind`` casting
    (e.g. an integer ``C``) runs the serial per-step loop, which keeps
    the operand dtype.

    Every call publishes an :class:`ExecutionReport` — including the
    measured peak workspace bytes — retrievable via :func:`last_report`.
    """
    check_threads(threads)
    check_backend_workers(backend, workers)
    check_exec_shapes(cplan, A, B, C)
    arena = arena if arena is not None else workspace_arena
    leaf = NUMPY_LEAF if leaf is None else leaf
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
    stats = _CoreStats()
    t_start = time.perf_counter()
    with obs_trace.span(
        "execute_plan", "runtime",
        shape=f"{cplan.shape[0]}x{cplan.shape[1]}x{cplan.shape[2]}",
        batch=batch, fusion=fusion_eff,
    ) as exec_span:
        meter = arena.start_meter()
        try:
            # A non-finite operand makes FMM's operand sums and C updates
            # meet Inf - Inf, which numpy flags as "invalid".  The NaN
            # that comes out is the documented result (see multiply's
            # Notes), so the runtime stays as quiet as A @ B on the same
            # operands.
            with np.errstate(invalid="ignore"):
                _run(cplan, A, B, C, vector_cap, chunk_target, arena, leaf,
                     fusion_eff, stats)
        finally:
            peak = max(arena.finish_meter(meter), stats.steps_bytes)
            exec_span.set(core_path=stats.core_path, peak_bytes=peak)
    _publish_report(ExecutionReport(
        shape=cplan.shape,
        batch=batch,
        variant=cplan.variant,
        fusion=fusion_eff,
        core_path=stats.core_path,
        peak_workspace_bytes=peak,
        schedule=cplan.schedule_signature,
        dtype=dtype_name(cplan.dtype),
        duration_s=time.perf_counter() - t_start,
        n_chunks=max(stats.n_chunks, 1),
        io_bytes=stats.io_bytes,
        n_tiles=stats.n_tiles,
        tile_window_bytes=stats.tile_window_bytes,
    ))
    return C


def _run(cplan, A, B, C, vector_cap, chunk_target, arena, leaf, fusion,
         stats: _CoreStats) -> None:
    """The core (in batch chunks) and then the fringes of one call."""
    pp = cplan.peel_plan
    if pp.has_core:
        mp, kp, np_ = pp.core
        Mt, Kt, Nt = cplan.dims_total
        bm, bk, bn = mp // Mt, kp // Kt, np_ // Nt
        Ac = A[..., :mp, :kp]
        Bc = B[..., :kp, :np_]
        Cc = C[..., :mp, :np_]
        per_product = bm * bk + bk * bn + bm * bn
        # The arena path computes in the plan dtype; when C cannot absorb
        # that (e.g. integer operands fed straight to the engine), the
        # per-step loop preserves the operand dtype for
        # +-1-coefficient algorithms.  Custom leaves own their dtype
        # handling.
        on_graph = leaf is not NUMPY_LEAF or np.can_cast(
            cplan.dtype, C.dtype, casting="same_kind"
        )
        if on_graph and fusion == "staged":
            on_graph = cplan.rank_total * per_product <= vector_cap
        if on_graph:
            stats.core_path = "graph"
            group = min(effective_fused_group(), cplan.rank_total)
            if Ac.ndim == 3 and not leaf.supports_batch:
                chunks = [(Ac[b], Bc[b], Cc[b]) for b in range(Ac.shape[0])]
            elif Ac.ndim == 3:
                # Chunk so the live intermediates stay near chunk_target
                # elements: staged slabs scale with R, fused/tiled group
                # buffers with the group — the fused pipeline's memory
                # bound holds for batched stacks too.
                if fusion == "staged":
                    work = per_product * cplan.rank_total
                else:
                    work = per_product * group
                chunk = max(1, min(Ac.shape[0], chunk_target // max(work, 1)))
                chunks = [(Ac[i : i + chunk], Bc[i : i + chunk],
                           Cc[i : i + chunk])
                          for i in range(0, Ac.shape[0], chunk)]
            else:
                chunks = [(Ac, Bc, Cc)]
            for Ai, Bi, Ci in chunks:
                io, nt, win = _run_core(cplan, Ai, Bi, Ci, bm, bk, bn,
                                        arena, fusion, group, leaf)
                stats.io_bytes += io
                stats.n_tiles += nt
                stats.tile_window_bytes = max(stats.tile_window_bytes, win)
                stats.n_chunks += 1
        else:
            stats.core_path = "steps"
            _log.debug(
                "per-step serial fallback for %s (vector cap or "
                "non-castable C dtype)", cplan.shape,
            )
            # The fallback allocates its per-step S/T/M with plain numpy,
            # outside the metered arena; report its analytic live
            # footprint (one product's buffers) so the staged fallback
            # never shows as using *less* memory than the arena
            # pipelines.
            stats.steps_bytes = (per_product * math.prod(Ac.shape[:-2])
                                 * np.result_type(Ac, Bc).itemsize)
            _run_steps(cplan, Ac, Bc, Cc, bm, bk, bn)
    _run_fringes(pp.fringes, A, B, C, leaf)


def _run_core(cplan, Ac, Bc, Cc, bm, bk, bn, arena, fusion, group, leaf):
    """Run one core (one batch chunk) through its lowering's phases.

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
        L = math.prod(lead)
        tile_rows = resolve_tile_rows(
            bm, bk, bn, group, lead_elems=L,
            itemsize=cplan.dtype.itemsize,
            has_scratch=cplan.has_nonunit_c_coeffs,
        )
        ws = arena.acquire(
            (cplan.key, lead, "tiled", group, tile_rows),
            lambda: _grouped_workspace_spec(
                cplan, lead, bm, bk, bn, group, tile_rows, ("mmap",)
            ),
        )
        binding = _TiledBinding(
            cplan, Ac, Bc, Cc, bm, bk, bn, ws, group, tile_rows
        )
        io, n_tiles = _tiled_io_stats(cplan, L, bm, bk, bn, group, tile_rows)
        window = _tile_window_bytes(cplan, L, bn, group, tile_rows)
    elif leaf is NUMPY_LEAF:
        ws = arena.acquire(
            (cplan.key, lead, "grouped", group),
            lambda: _grouped_workspace_spec(cplan, lead, bm, bk, bn, group),
        )
        binding = _GroupedFusedBinding(
            cplan, Ac, Bc, Cc, bm, bk, bn, ws, group
        )
    else:
        needs = tuple(leaf.needs_buffers)
        ws = arena.acquire(
            (cplan.key, lead, "fused", needs),
            lambda: _fused_workspace_spec(cplan, lead, bm, bk, bn, needs),
        )
        binding = _FusedBinding(cplan, Ac, Bc, Cc, bm, bk, bn, ws, leaf)
    try:
        binding.run()
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
