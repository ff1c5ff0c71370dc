"""The plan compiler and cache: one compiled artifact for every execution path.

The paper's generator separates *building* an implementation (composing
coefficients, indexing partitions, planning the peel — §4.1's skeleton)
from *running* it.  :func:`compile` is that separation made explicit for
the runtime: it lowers ``(shape, algorithm, levels, variant, dtype)`` to a
:class:`CompiledPlan` — the :class:`~repro.core.plan.ExecutionPlan` IR plus
every per-call-invariant artifact the interpreters need:

* dtype-cast composed coefficient operators ``Ut``/``Vt``/``W`` for the
  vectorized direct path,
* per-operand block tables (recursive index -> grid position) so operand
  views are sliced without re-deriving the Morton permutation,
* the peel plan and per-step gather vectors.

Compiled plans are memoized in a bounded, thread-safe LRU cache keyed on
the canonical ``(m, k, n, spec_key, variant, fusion, dtype)`` tuple, so serving
many same-shape multiplies pays the lowering cost once —
``benchmarks/bench_plan_cache.py`` measures the effect.

``DirectEngine``, ``BlockedEngine``, ``FMMAlgorithm.apply_once`` and the
source emitter (:mod:`repro.core.codegen`) all consume this one object.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.kronecker import MultiLevelFMM
from repro.core.peeling import PeelPlan
from repro.core.plan import ExecutionPlan, build_plan
from repro.core.spec import (
    Schedule,
    classical_depth,
    normalize_fusion,
    normalize_variant,
    operand_slab_bytes,
    resolve_fusion,
    resolve_levels,
    spec_key,
    staged_slab_elements,
)
from repro.obs import trace as _trace
from repro.obs.logcfg import get_logger

_log = get_logger(__name__)

__all__ = [
    "CompiledPlan",
    "compile",
    "plan_cache_info",
    "plan_cache_clear",
    "set_plan_cache_maxsize",
    "SUPPORTED_DTYPES",
]

#: Dtypes the execution stack preserves end-to-end.
SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def _catalog_atom(alg):
    """Shape atom when ``alg`` *is* the catalog entry for its dims, else ``alg``.

    The classical ``<1,1,1>`` triple is the ``"classical"`` name atom, so a
    classical plan signs ``"classical@L"`` — the same key the BLAS route
    stamps, and one that re-parses.
    """
    from repro.algorithms.catalog import get_entry

    if classical_depth(alg):
        return "classical"
    try:
        cat = get_entry(*alg.dims).algorithm
    except KeyError:
        return alg
    if cat is alg or (
        np.array_equal(cat.U, alg.U)
        and np.array_equal(cat.V, alg.V)
        and np.array_equal(cat.W, alg.W)
    ):
        return alg.dims
    return alg


@dataclass(frozen=True, eq=False)
class CompiledPlan:
    """A cached, ready-to-interpret implementation of one multiply config.

    Wraps the :class:`~repro.core.plan.ExecutionPlan` IR with the
    precomputed artifacts that make interpretation allocation- and
    recomposition-free:

    Attributes
    ----------
    plan:
        The underlying IR (steps with gather vectors, peel plan, grids).
    dtype:
        Element type every intermediate is computed in (float32/float64).
    Ut, Vt:
        ``(R, prod m_l k_l)`` / ``(R, prod k_l n_l)`` transposed composed
        coefficients in ``dtype`` — applying them to the stacked operand
        blocks yields *all* operand sums ``S_r``/``T_r`` in one tensordot.
    W:
        ``(prod m_l n_l, R)`` composed C coefficients in ``dtype`` for the
        one-shot scatter of all products into the destination blocks.
    a_table, b_table, c_table:
        Recursive-block index -> ``(row, col)`` grid position per operand.
    """

    key: tuple
    plan: ExecutionPlan
    dtype: np.dtype
    #: Resolved runtime lowering mode: ``"staged"`` (materialize every
    #: gather/product/scatter slab), ``"fused"`` (stream each product
    #: group through recycled buffers) or ``"tiled" (the fused pipeline
    #: out-of-core: mmap-spilled slabs, strip-windowed product phase).
    #: ``fusion="auto"`` requests resolve at compile time via
    #: :func:`repro.core.spec.resolve_fusion`.
    fusion: str
    Ut: np.ndarray = field(repr=False)
    Vt: np.ndarray = field(repr=False)
    W: np.ndarray = field(repr=False)
    a_table: tuple[tuple[int, int], ...] = field(repr=False)
    b_table: tuple[tuple[int, int], ...] = field(repr=False)
    c_table: tuple[tuple[int, int], ...] = field(repr=False)

    # ------------------------------------------------------------------ #
    # Delegated IR accessors
    # ------------------------------------------------------------------ #
    @property
    def ml(self) -> MultiLevelFMM:
        return self.plan.ml

    @property
    def variant(self) -> str:
        return self.plan.variant

    @property
    def schedule(self) -> Schedule:
        """The per-level schedule this plan applies.

        One atom per recursion level, outermost first.  A level whose
        coefficients are exactly the catalog entry for its dims becomes a
        shape atom (so ``schedule.signature`` — e.g. ``"<3,3,3>@1,
        <2,2,2>@1"`` — re-parses to the same algorithms); an ad-hoc or
        non-catalog algorithm (Winograd, a hand-built triple) stays an
        :class:`~repro.core.fmm.FMMAlgorithm` atom rather than being
        misattributed to the catalog entry of the same shape.
        """
        return Schedule(tuple(_catalog_atom(a) for a in self.plan.ml.levels))

    @property
    def steps(self):
        return self.plan.steps

    @property
    def peel_plan(self) -> PeelPlan:
        return self.plan.peel_plan

    @property
    def dims_total(self) -> tuple[int, int, int]:
        return self.plan.dims_total

    @property
    def rank_total(self) -> int:
        return self.plan.rank_total

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.plan.m, self.plan.k, self.plan.n)

    @cached_property
    def has_nonunit_c_coeffs(self) -> bool:
        """True when any scatter coefficient is not ±1 (float-status
        entries): the grouped pipeline then checks out a scratch strip so
        its scatter-accumulate stays dtype-matched and allocation-free.
        The workspace model mirrors this flag off the composed ``W``."""
        return any(
            w != 1.0 and w != -1.0
            for s in self.plan.steps
            for _, w in s.c_terms
        )

    @cached_property
    def is_classical(self) -> bool:
        """True for the classical ``<1,1,1>`` schedule at any depth: one
        product with unit coefficients, i.e. exactly ``C += A @ B``.  The
        direct engine serves such a plan as a single BLAS call
        (:func:`repro.core.runtime.execute_blas`)."""
        return classical_depth(self.ml) > 0

    @cached_property
    def schedule_signature(self) -> str:
        """The :attr:`schedule`'s string signature (e.g. ``"<2,2,2>@2"``).

        Cached because the telemetry layer stamps it on every
        :class:`~repro.core.runtime.ExecutionReport`: building the
        signature walks the catalog per level, far too slow for the
        per-call hot path, while the cached string is a field read."""
        return self.schedule.signature

    # ------------------------------------------------------------------ #
    # View extraction (works for 2-D and batched ``(..., rows, cols)``)
    # ------------------------------------------------------------------ #
    def _table(self, operand: str) -> tuple[tuple[int, int], ...]:
        try:
            return {"A": self.a_table, "B": self.b_table, "C": self.c_table}[operand]
        except KeyError:
            raise ValueError(f"operand must be A, B or C, not {operand!r}") from None

    def block_views(self, X: np.ndarray, operand: str, br: int, bc: int):
        """Recursive-block-ordered views of a core slab ``X``.

        ``br``/``bc`` are the block sizes (rows, cols); slicing applies to
        the trailing two axes, so batched stacks work unchanged.
        """
        return [
            X[..., r * br : (r + 1) * br, c * bc : (c + 1) * bc]
            for r, c in self._table(operand)
        ]

    def __repr__(self) -> str:  # keep array payloads out of reprs
        m, k, n = self.shape
        return (
            f"CompiledPlan({m}x{k}x{n}, {self.ml.name}, "
            f"variant={self.variant!r}, dtype={self.dtype.name}, "
            f"R={self.rank_total})"
        )


# ---------------------------------------------------------------------- #
# The plan cache
# ---------------------------------------------------------------------- #
_lock = threading.Lock()
_cache: "OrderedDict[tuple, CompiledPlan]" = OrderedDict()
#: requested-``"auto"``-key -> ``(staged_elements, slab_bytes)`` resolution
#: inputs.  :func:`repro.core.spec.resolve_fusion` reads *live* tunables
#: (the fused-auto threshold and the memory budget), so an auto request
#: can never be linked to one canonical key permanently — a budget change
#: must re-route the same request to a different lowering.  Instead the
#: first compile remembers the key's resolution inputs and every later
#: lookup re-resolves against them (cheap arithmetic), deriving the
#: canonical resolved-fusion slot fresh; auto and its current explicit
#: twin still share one cache entry (no duplicate coefficient operators,
#: no halved LRU capacity).
_auto_inputs: dict[tuple, tuple[int, int]] = {}
_maxsize = 128
_hits = 0
_misses = 0


def compile(
    shape: tuple[int, int, int],
    algorithm="strassen",
    levels: int = 1,
    variant: str = "abc",
    dtype=np.float64,
    fusion: str = "auto",
) -> CompiledPlan:
    """Lower one multiply configuration to a cached :class:`CompiledPlan`.

    Parameters
    ----------
    shape : tuple of int
        Problem size ``(m, k, n)``.
    algorithm : spec
        Any form accepted by :func:`repro.core.spec.normalize_spec` —
        a catalog name, ``(m, k, n)`` shape, :class:`Schedule`, schedule
        string (``"strassen@2,<3,3,3>@1"``), hybrid list, or
        :class:`~repro.core.fmm.FMMAlgorithm` /
        :class:`~repro.core.kronecker.MultiLevelFMM` object.
    levels : int, optional
        Recursion depth for single-atom specs (explicit schedules and
        stacks fix their own depth).  Default 1.
    variant : {"abc", "ab", "naive"}, optional
        Operand-sum fusion variant (paper §4.2).
    dtype : dtype-like, optional
        float32 or float64; the compiled coefficient operators are cast so
        execution preserves the dtype end-to-end.  Default float64.
    fusion : {"auto", "staged", "fused", "tiled"}, optional
        Runtime lowering mode.  ``"staged"`` materializes the full
        gather/product/scatter slabs; ``"fused"`` streams each product
        group through recycled buffers (O(group) live product buffers
        instead of O(R)); ``"tiled"`` runs the fused pipeline
        out-of-core, spilling slab-scale buffers to mmap and streaming
        the product phase through a budget-sized RAM strip window.  The
        default ``"auto"`` resolves from the variant, the staged-slab
        footprint, and — when a memory budget is configured — the
        operand-slab bytes (:func:`repro.core.spec.resolve_fusion`).

    Returns
    -------
    CompiledPlan
        The ready-to-interpret plan.  Repeat calls with an equivalent
        configuration (same canonical schedule — ``"smirnov333"`` and
        ``"<3,3,3>"`` coincide) return the *same* object from the LRU
        cache (see :func:`plan_cache_info`).
    """
    global _hits, _misses
    m, k, n = (int(x) for x in shape)
    dt = np.dtype(dtype)
    if dt not in SUPPORTED_DTYPES:
        raise ValueError(
            f"unsupported dtype {dt}; execution supports "
            f"{[d.name for d in SUPPORTED_DTYPES]}"
        )
    variant = normalize_variant(variant)
    fusion = normalize_fusion(fusion)
    key = (m, k, n, spec_key(algorithm, levels), variant, fusion, dt.str)
    auto_key = key if fusion == "auto" else None
    if auto_key is not None:
        with _lock:
            inputs = _auto_inputs.get(auto_key)
        if inputs is not None:
            # Re-resolve against the live tunables on *every* lookup: a
            # changed budget/threshold must re-route the same auto request
            # to a different lowering, so the canonical slot is derived
            # fresh from the remembered inputs, never linked statically.
            key = key[:5] + (resolve_fusion(fusion, variant, *inputs),) + key[6:]
    with _lock:
        hit = _cache.get(key)
        if hit is not None:
            _cache.move_to_end(key)
            _hits += 1
        else:
            _misses += 1
    if hit is not None:
        _trace.instant("plan_cache.hit", "compile")
        return hit
    _trace.instant("plan_cache.miss", "compile")

    with _trace.span("plan.compile", "compile",
                     shape=f"{m}x{k}x{n}", variant=variant):
        # Resolve the lowering mode before the expensive lowering: the
        # canonical cache slot carries the *resolved* fusion mode, so auto
        # and its current explicit twin share one CompiledPlan — and an
        # auto request whose explicit twin is already cached never
        # rebuilds it.
        ml = resolve_levels(algorithm, levels)
        staged_elements = staged_slab_elements(m, k, n, ml)
        slab_bytes = operand_slab_bytes(m, k, n, ml, dt.itemsize)
        fusion_resolved = resolve_fusion(
            fusion, variant, staged_elements, slab_bytes,
        )
        key_resolved = key[:5] + (fusion_resolved,) + key[6:]
        if key_resolved != key:
            with _lock:
                _auto_inputs[auto_key] = (staged_elements, slab_bytes)
                existing = _cache.get(key_resolved)
                if existing is not None:
                    _cache.move_to_end(key_resolved)
                    return existing

        plan = build_plan(m, k, n, ml, variant)
        Ut = np.ascontiguousarray(ml.U.T, dtype=dt)
        Vt = np.ascontiguousarray(ml.V.T, dtype=dt)
        W = np.ascontiguousarray(ml.W, dtype=dt)
        for arr in (Ut, Vt, W):
            arr.setflags(write=False)
        compiled = CompiledPlan(
            key=key_resolved,  # canonical: downstream caches key on cplan.key
            plan=plan,
            dtype=dt,
            fusion=fusion_resolved,
            Ut=Ut, Vt=Vt, W=W,
            a_table=plan.block_table("A"),
            b_table=plan.block_table("B"),
            c_table=plan.block_table("C"),
        )
    _log.debug(
        "compiled plan %dx%dx%d %s variant=%s fusion=%s dtype=%s",
        m, k, n, ml.name, variant, fusion_resolved, dt.name,
    )
    with _lock:
        # A concurrent compile may have raced us; keep the first entry so
        # callers holding it keep hitting the same object.
        existing = _cache.get(key_resolved)
        if existing is None:
            _cache[key_resolved] = compiled
            existing = compiled
        if auto_key is not None:
            _auto_inputs[auto_key] = (staged_elements, slab_bytes)
        _shrink_locked()
    return existing


def _shrink_locked() -> None:
    """Evict LRU entries past ``_maxsize`` (caller holds ``_lock``).

    Remembered auto-resolution inputs stay valid across evictions (they
    describe the problem, not a cache entry); they are only bounded so a
    shape-churning workload cannot grow the dict without limit.
    """
    while len(_cache) > _maxsize:
        _cache.popitem(last=False)
    while len(_auto_inputs) > 4 * _maxsize:
        _auto_inputs.pop(next(iter(_auto_inputs)))


def plan_cache_info() -> CacheInfo:
    """``(hits, misses, maxsize, currsize)`` of the compiled-plan cache."""
    with _lock:
        return CacheInfo(_hits, _misses, _maxsize, len(_cache))


def plan_cache_clear() -> None:
    """Empty the cache and reset the hit/miss counters."""
    global _hits, _misses
    with _lock:
        _cache.clear()
        _auto_inputs.clear()
        _hits = 0
        _misses = 0


def set_plan_cache_maxsize(maxsize: int) -> None:
    """Resize the cache (evicting least-recently-used entries if needed)."""
    global _maxsize
    if maxsize < 1:
        raise ValueError("maxsize must be >= 1")
    with _lock:
        _maxsize = int(maxsize)
        _shrink_locked()
