"""Execution engines and the public ``multiply`` entry points.

Every FMM multiply flows through one compiled artifact: the
:class:`~repro.core.compile.CompiledPlan` produced (and LRU-cached) by
:func:`repro.core.compile.compile`.  The classical ``<1,1,1>`` schedule
on the direct engine is the exception: it has nothing to fuse or stage,
so :func:`multiply` / :func:`multiply_batched` run it as one BLAS call
(:func:`repro.core.runtime.run_blas`) before any plan is compiled,
and :class:`DirectEngine` does the same with a classical plan it is
handed.  Under ``engine="auto"`` both entry points resolve each call
signature once and memoize the route (:func:`_resolve`), so a repeat
classical call is one dict probe plus that BLAS call.  The engines are
thin *clients of the runtime* (:mod:`repro.core.runtime`) — they
re-derive nothing per call and own no execution loop of their own:

* :class:`DirectEngine` — hands the compiled plan to
  :func:`repro.core.runtime.execute_plan`: the plan's phases
  (gather/product/scatter over arena workspace) run in order on the
  calling thread, and BLAS threads every leaf product.  Fast and
  simple; the correctness oracle for everything else.
* :class:`BlockedEngine` — the simulated-BLIS path: the *same* phases,
  with :class:`~repro.core.variants.BlisProductLeaf` as the leaf kernel
  — every product runs through the packed five-loop GEMM with
  variant-specific fusion, instrumented with the counters the
  performance model prices.  ``threads`` parallelizes the packed GEMM's
  3rd (``ic``) loop, the paper's data parallelism.

Public API on top: :func:`multiply` (with model-guided
``engine="auto"`` dispatch), :func:`multiply_batched` (one compiled plan
amortized over a stack of same-shape multiplies), and dtype generality —
float32/float64 operands are preserved end-to-end, other real types are
promoted to float64 and complex operands raise ``TypeError``.  Peeling
for non-divisible sizes (paper §4.1) and per-level hybrid algorithms
(§5.2) come with the plan.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from typing import NamedTuple

import numpy as np

from repro.blis.counters import OpCounters
from repro.blis.gemm import packed_gemm
from repro.blis.params import BlockingParams
from repro.core import compile as plancache
from repro.core import runtime
from repro.core.compile import SUPPORTED_DTYPES, CompiledPlan
from repro.core.kronecker import MultiLevelFMM
from repro.core.runtime import check_exec_shapes as _check_exec_shapes
from repro.core.spec import (
    MEM_BUDGET_ENV,
    check_backend_workers,
    check_threads,
    classical_depth,
    decision_generation,
    dtype_name,
    normalize_fusion,
    normalize_threads,
    normalize_tune,
    normalize_variant,
    resolve_fusion,
    resolve_levels,
)
from repro.core.variants import BlisProductLeaf
from repro.obs.logcfg import get_logger

_log = get_logger(__name__)

__all__ = [
    "ENGINES",
    "DirectEngine",
    "BlockedEngine",
    "multiply",
    "multiply_batched",
    "resolve_levels",
]

#: Engines :func:`multiply` dispatches to (``"auto"`` resolves to one).
ENGINES = ("direct", "blocked")


def _compute_dtype(*arrays, dtype=None) -> np.dtype:
    """Execution dtype: an explicit request, or the operands' common type.

    float32/float64 are preserved; any other real input type (ints,
    float16...) promotes to float64 like a NumPy ufunc would round up.
    Complex operands raise ``TypeError``: every path computes in a real
    dtype, so casting would silently drop the imaginary part.
    """
    for X in arrays:
        if X.dtype.kind == "c":
            raise TypeError(
                f"complex operands ({X.dtype}) are not supported; "
                "multiply the real and imaginary parts separately"
            )
    if dtype is not None:
        dt = np.dtype(dtype)
        if dt not in SUPPORTED_DTYPES:
            raise ValueError(f"unsupported dtype {dt}")
        return dt
    dt = np.result_type(*arrays)
    return dt if dt in SUPPORTED_DTYPES else np.dtype(np.float64)


def _check_c_dtype(dt: np.dtype, C) -> None:
    """Reject a caller's ``C`` that cannot absorb compute dtype ``dt``.

    ``multiply`` and ``multiply_batched`` run before any selection, plan
    compile or arena checkout, so a mismatched ``C`` fails with nothing
    done.  (The engines themselves keep an integer-``C`` path: the
    runtime's per-step loop.)
    """
    if C is not None and not np.can_cast(dt, C.dtype, casting="same_kind"):
        raise TypeError(
            f"C has dtype {C.dtype}, which cannot hold the {dt} result "
            "(same_kind casting); pass a float C or omit it"
        )


def _contig_operand(X: np.ndarray, dt: np.dtype, name: str) -> np.ndarray:
    """C-contiguous, dtype-matched operand — logging silent RAM copies.

    A contiguous operand of the right dtype passes through untouched
    (``np.memmap``-backed arrays included: their pages stream through
    the tiled lowering's window on demand).  Anything else must be
    copied for the runtime's gather and kernels — and when the source
    is mmap-backed or a non-owned view, that copy silently materializes
    the full slab in RAM, which defeats an out-of-core input.  That
    case used to be invisible; it now lands in this module's log.
    """
    out = np.ascontiguousarray(X, dtype=dt)
    if out is X or np.may_share_memory(out, X):
        return out
    base, mmapped = X, False
    while isinstance(base, np.ndarray) and not mmapped:
        mmapped = isinstance(base, np.memmap)
        base = base.base
    if mmapped or (X.base is not None and not X.flags.owndata):
        kind = "mmap-backed" if mmapped else "non-owned"
        _log.info(
            "operand %s (%s, shape %s, dtype %s) was copied into a "
            "contiguous %s RAM slab; pass it C-contiguous in the "
            "execution dtype to stream it through the out-of-core path",
            name, kind, X.shape, X.dtype, dt,
        )
    return out


def _compile_for(A: np.ndarray, B: np.ndarray, algorithm, variant: str) -> CompiledPlan:
    """Compile a plan matching already-validated 2-D operands."""
    return plancache.compile(
        (A.shape[0], A.shape[1], B.shape[1]),
        algorithm,
        variant=variant,
        dtype=_compute_dtype(A, B),
    )


class DirectEngine:
    """Thin client of the lowering runtime (:mod:`repro.core.runtime`).

    Parameters
    ----------
    vector_cap:
        Per-element workload bound (elements across the stacked S/T/M
        intermediates) under which the staged arena path is used;
        larger cores use the serial per-step gather loop to bound
        workspace.
    chunk_target:
        Intermediate-size target (elements) for slicing a batch into
        cache-resident chunks on the arena path.

    A ``C`` that cannot absorb the plan dtype (e.g. an integer ``C``)
    runs the runtime's serial per-step loop, which keeps the operand
    dtype.
    """

    def __init__(
        self,
        vector_cap: int = runtime.DEFAULT_VECTOR_CAP,
        chunk_target: int = runtime.DEFAULT_CHUNK_TARGET,
    ) -> None:
        self.vector_cap = int(vector_cap)
        self.chunk_target = int(chunk_target)
        self.last_peel = None
        self.last_plan: CompiledPlan | None = None
        self.last_report: runtime.ExecutionReport | None = None

    def multiply(
        self,
        A: np.ndarray,
        B: np.ndarray,
        C: np.ndarray,
        ml: MultiLevelFMM,
    ) -> np.ndarray:
        """``C += A @ B`` using the multi-level FMM ``ml`` (compat shim).

        Compiles (or fetches from the plan cache) the matching
        :class:`CompiledPlan` and defers to :meth:`execute`.
        """
        _check_mult_shapes(A, B, C)
        return self.execute(_compile_for(A, B, ml, "abc"), A, B, C)

    def execute(
        self, cplan: CompiledPlan, A: np.ndarray, B: np.ndarray, C: np.ndarray
    ) -> np.ndarray:
        """Run a compiled plan through the runtime: ``C += A @ B``.

        Operands may be 2-D or batched ``(batch, rows, cols)`` stacks whose
        trailing dims match the plan's ``(m, k, n)``.  A classical
        ``<1,1,1>`` plan runs as one BLAS call
        (:func:`repro.core.runtime.execute_blas`) unless ``C`` cannot
        absorb the plan dtype (e.g. an integer ``C``) or the plan lowers
        out-of-core (``fusion="tiled"``).
        """
        self.last_peel = cplan.peel_plan
        self.last_plan = cplan
        if cplan.is_classical and _blas_ok(cplan.dtype, C, cplan.fusion):
            _check_exec_shapes(cplan, A, B, C)
            out = runtime.execute_blas(
                A, B, C, dtype=cplan.dtype, variant=cplan.variant,
                levels=len(cplan.ml.levels),
            )
        else:
            out = runtime.execute_plan(
                cplan, A, B, C,
                vector_cap=self.vector_cap,
                chunk_target=self.chunk_target,
            )
        self.last_report = runtime.last_report()
        return out


class BlockedEngine:
    """Simulated-BLIS client of the lowering runtime.

    Executes the *same* lowered phases as :class:`DirectEngine` (there is
    no separate blocked loop nest), with
    :class:`~repro.core.variants.BlisProductLeaf` as the per-product leaf
    kernel: each product streams through the packed five-loop GEMM with
    variant-specific fusion, charging the operation counters the
    performance model prices.

    Parameters
    ----------
    params:
        Cache/register blocking (defaults to the paper's Ivy Bridge config).
    variant:
        ``"naive"``, ``"ab"`` or ``"abc"`` (see :mod:`repro.core.variants`);
        used when compiling plans via :meth:`multiply`.  :meth:`execute`
        honors the variant baked into the plan.
    threads:
        Workers for the packed GEMM's 3rd (``ic``) loop — the paper's
        data parallelism: each worker packs its own ``A~`` block and
        owns a disjoint row band of C, so results and counters match
        the sequential run.  1 (default) is sequential; more opens a
        ``ThreadPoolExecutor`` for the duration of each call.
    mode:
        Macro-kernel granularity, ``"slab"`` (fast) or ``"micro"`` (faithful
        register-tile loop).
    """

    def __init__(
        self,
        params: BlockingParams | None = None,
        variant: str = "abc",
        threads: int = 1,
        mode: str = "slab",
    ) -> None:
        self.params = params or BlockingParams()
        self.variant = normalize_variant(variant)
        self.threads = normalize_threads(threads) or 1
        self.mode = mode
        self.counters = OpCounters()
        self.last_peel = None
        self.last_plan: CompiledPlan | None = None
        self.last_report: runtime.ExecutionReport | None = None

    def _pool(self):
        """The call's ``ic``-loop pool (a context manager yielding None
        when sequential)."""
        if self.threads == 1:
            return nullcontext()
        return ThreadPoolExecutor(max_workers=self.threads,
                                  thread_name_prefix="repro-ic")

    def multiply(
        self,
        A: np.ndarray,
        B: np.ndarray,
        C: np.ndarray,
        ml: MultiLevelFMM,
    ) -> np.ndarray:
        """``C += A @ B`` through the packed five-loop substrate."""
        _check_mult_shapes(A, B, C)
        return self.execute(_compile_for(A, B, ml, self.variant), A, B, C)

    def execute(
        self, cplan: CompiledPlan, A: np.ndarray, B: np.ndarray, C: np.ndarray
    ) -> np.ndarray:
        """Interpret a compiled plan through the blocked substrate.

        Operands may be 2-D or batched ``(batch, rows, cols)`` stacks —
        the runtime walks batch elements through the same phases (the
        packed leaf kernel is 2-D).
        """
        _check_exec_shapes(cplan, A, B, C)
        self.last_peel = cplan.peel_plan
        self.last_plan = cplan
        with self._pool() as pool:
            leaf = BlisProductLeaf(
                variant=cplan.variant,
                params=self.params,
                counters=self.counters,
                mode=self.mode,
                pool=pool,
            )
            out = runtime.execute_plan(cplan, A, B, C, leaf=leaf)
        self.last_report = runtime.last_report()
        return out

    def gemm(self, A: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray:
        """Plain packed GEMM (the BLIS baseline the paper compares against)."""
        _check_mult_shapes(A, B, C)
        with self._pool() as pool:
            packed_gemm(
                [(1.0, A)], [(1.0, B)], [(1.0, C)],
                self.params, self.counters, mode=self.mode, pool=pool,
            )
        return C


def _dispatch(engine: str, cplan: CompiledPlan, A, B, C, params, mode):
    if engine == "direct":
        DirectEngine().execute(cplan, A, B, C)
    elif engine == "blocked":
        BlockedEngine(
            params=params, variant=cplan.variant, mode=mode
        ).execute(cplan, A, B, C)
    else:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of "
            f"{list(ENGINES) + ['auto']}"
        )


def _blas_ok(dt: np.dtype, C, fusion: str) -> bool:
    """Whether a classical configuration in resolved lowering ``fusion``
    can accumulate into a caller's ``C`` as one BLAS call.  ``C`` must
    absorb ``dt`` under ``same_kind`` casting — an integer ``C`` keeps
    the runtime's dtype-preserving per-step path — and the lowering must
    not be ``"tiled"``: the out-of-core pipeline streams into ``C``
    through a bounded RAM window, where ``C += A @ B`` would hold the
    whole product in RAM."""
    return fusion != "tiled" and np.can_cast(dt, C.dtype, casting="same_kind")


def _blas_depth(engine, algorithm, levels, variant, fusion, dt, C, shape) -> int:
    """Depth of the classical schedule when a resolved configuration runs
    as one BLAS call (:func:`repro.core.runtime.run_blas`) instead of
    compiling a plan, else 0."""
    depth = classical_depth(algorithm, levels) if engine == "direct" else 0
    if not depth or fusion == "tiled":
        return 0
    if C is None:
        # np.matmul allocates only the result, which every lowering
        # allocates too, so no memory budget can favour the runtime.
        return depth
    m, k, n = shape
    # (m*k + k*n) * itemsize is operand_slab_bytes of the <1,1,1>
    # partition, so this resolves exactly as compile() would.
    fusion = resolve_fusion(fusion, variant, 0, (m * k + k * n) * dt.itemsize)
    return depth if _blas_ok(dt, C, fusion) else 0


#: Most ``engine="auto"`` call signatures the route memo holds; past it
#: the oldest entry is dropped first.
_ROUTE_MEMO_SIZE = 1024

_routes: dict = {}
_routes_lock = threading.Lock()


class _Route(NamedTuple):
    """How one call runs, as :func:`_resolve` decided it."""

    generation: int      # decision_generation() before the decision
    dt: np.dtype         # compute dtype
    shape: tuple         # (m, k, n)
    batch: int           # stack count, 1 for 2-D
    config: tuple        # resolved (algorithm, levels, variant, engine)
    depth: int           # classical depth on the BLAS route, else 0
    cast: bool           # whether an operand's dtype differs from dt
    report: dict | None  # the BLAS route's constant report fields


def _route_key(batched, A, B, C, dtype, tune, fusion):
    """What an ``engine="auto"`` call's route depends on besides the
    decision generation, or None for a ``C`` that is not an array.

    A caller's ``C`` adds its shape, its dtype and the raw
    ``REPRO_MEM_BUDGET`` value: past the budget it keeps the tiled
    lowering, and the variable is read live.
    """
    if C is None:
        c_sig = None
    elif isinstance(C, np.ndarray):
        c_sig = (C.shape, C.dtype, os.environ.get(MEM_BUDGET_ENV))
    else:
        return None
    return (batched, A.shape, A.dtype, B.shape, B.dtype, c_sig,
            dtype, tune, fusion)


def _memo_get(key) -> _Route | None:
    """The memoized route under ``key``, if resolved in this generation."""
    if key is None:
        return None
    try:
        route = _routes.get(key)
    except TypeError:  # an unhashable dtype request resolves per call
        return None
    if route is None or route.generation != decision_generation():
        return None
    return route


def _remember(key, route: _Route) -> None:
    with _routes_lock:
        _routes[key] = route
        while len(_routes) > _ROUTE_MEMO_SIZE:
            del _routes[next(iter(_routes))]


def _memo_blas_route(batched, A, B, C, dtype, tune, fusion):
    """The memoized BLAS route of an ``engine="auto"`` call whose
    operands run as they are: exact ndarrays, C-contiguous, already in
    the compute dtype.  None sends the call through :func:`_resolve`."""
    if type(A) is not np.ndarray or type(B) is not np.ndarray:
        return None
    route = _memo_get(_route_key(batched, A, B, C, dtype, tune, fusion))
    if (route is None or not route.depth or route.cast
            or not (A.flags.c_contiguous and B.flags.c_contiguous)):
        return None
    return route


def _check_operands(batched, A, B) -> tuple[int, int, int, int]:
    """``(m, k, n, batch)`` of validated operands (batch 1 for 2-D)."""
    if not batched:
        if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
            raise ValueError(
                f"incompatible operand shapes {A.shape} x {B.shape}")
        return A.shape[0], A.shape[1], B.shape[1], 1
    if A.ndim == 2 and B.ndim == 2:
        raise ValueError("batched multiply needs a 3-D operand; use multiply()")
    # A 2-D operand is shared across the stack.
    a = A[None] if A.ndim == 2 else A
    b = B[None] if B.ndim == 2 else B
    if a.ndim != 3 or b.ndim != 3:
        raise ValueError(
            f"operands must be (batch, rows, cols) stacks, got {a.shape} x {b.shape}"
        )
    if a.shape[2] != b.shape[1]:
        raise ValueError(f"incompatible operand shapes {a.shape} x {b.shape}")
    batch = max(a.shape[0], b.shape[0])
    if a.shape[0] not in (1, batch) or b.shape[0] not in (1, batch):
        raise ValueError(
            f"batch counts disagree: A has {a.shape[0]}, B has {b.shape[0]}"
        )
    return a.shape[1], a.shape[2], b.shape[2], batch


def _resolve(batched, A, B, C, algorithm, levels, variant, engine, dtype,
             tune, fusion):
    """Validate one call and decide how it runs: the front matter
    :func:`multiply` and :func:`multiply_batched` share.

    Returns ``(A, B, route)`` with ``A`` and ``B`` as plain arrays, not
    yet cast.  Under ``engine="auto"`` the route is memoized per call
    signature (:func:`_route_key`) and served while the decision
    generation stands (:func:`repro.core.spec.invalidate_decisions`).  A
    memo entry exists only for a signature whose checks all passed, so
    a hit skips them.
    """
    A = np.asarray(A)
    B = np.asarray(B)
    m, k, n, batch = _check_operands(batched, A, B)
    key = None
    if engine == "auto":
        key = _route_key(batched, A, B, C, dtype, tune, fusion)
        route = _memo_get(key)
        if route is not None:
            return A, B, route
    generation = decision_generation()
    dt = _compute_dtype(A, B, dtype=dtype)
    _check_c_dtype(dt, C)
    expected = (batch, m, n) if batched else (m, n)
    if C is not None and C.shape != expected:
        raise ValueError(f"C has shape {C.shape}, expected {expected}")
    if engine == "auto":
        from repro.core.selection import auto_config

        algorithm, levels, variant, engine = auto_config(
            m, k, n, dtype=dtype_name(dt), tune=tune
        )[:4]
    depth = _blas_depth(engine, algorithm, levels, variant, fusion, dt, C,
                        (m, k, n))
    report = None
    if depth:
        report = runtime.blas_report_fields(
            (m, k, n), batch, dt, normalize_variant(variant), depth)
    route = _Route(generation, dt, (m, k, n), batch,
                   (algorithm, levels, variant, engine), depth,
                   A.dtype != dt or B.dtype != dt, report)
    if key is not None:
        _remember(key, route)
    return A, B, route


def _run_plan(A, B, C, route: _Route, fusion, params, mode) -> np.ndarray:
    """Compile the resolved configuration and run it: ``C + A @ B``."""
    m, k, n = route.shape
    if C is None:
        C = np.zeros(A.shape[:-2] + (m, n), dtype=route.dt)
    algorithm, levels, variant, engine = route.config
    cplan = plancache.compile(
        (m, k, n), algorithm, levels, variant, dtype=route.dt, fusion=fusion
    )
    _dispatch(engine, cplan, A, B, C, params, mode)
    return C


def multiply(
    A: np.ndarray,
    B: np.ndarray,
    C: np.ndarray | None = None,
    algorithm="strassen",
    levels: int = 1,
    variant: str = "abc",
    engine: str = "direct",
    params: BlockingParams | None = None,
    threads: int | None = None,
    mode: str = "slab",
    dtype=None,
    tune: str = "readonly",
    fusion: str = "auto",
    backend: str | None = None,
    workers: str | None = None,
) -> np.ndarray:
    """Fast matrix multiplication ``C + A @ B`` — the one-call public API.

    Parameters
    ----------
    A : (m, k) array_like
        Left operand.
    B : (k, n) array_like
        Right operand.
    C : (m, n) ndarray, optional
        Accumulation target; allocated (zeros) when omitted.  The product
        is *added* into it, BLAS-style, so it must absorb the compute
        dtype under ``same_kind`` casting (a float ``C``).
    algorithm : str, tuple, list, Schedule, FMMAlgorithm or MultiLevelFMM, optional
        Which family member to run.  Accepts a catalog name
        (``"strassen"``, ``"smirnov333"``), a shape (``"<3,2,3>"`` or
        ``(3, 2, 3)``), a per-level schedule — list
        (``["strassen", "<3,3,3>"]``), ``"+"``-joined string, schedule
        string (``"strassen@2,smirnov333@1"``), or
        :class:`~repro.core.spec.Schedule` — or an explicit algorithm
        object.  Default ``"strassen"``.
    levels : int, optional
        Recursion depth for single-atom specs; explicit schedules fix
        their own depth.  Default 1.
    variant : {"abc", "ab", "naive"}, optional
        Operand-sum fusion variant (paper §4.2).
    engine : {"direct", "blocked", "auto"}, optional
        ``"direct"`` runs the lowering runtime (fast NumPy path);
        ``"blocked"`` the instrumented simulated-BLIS substrate;
        ``"auto"`` picks schedule, variant and engine from the §4.4
        performance model, falling back to classical GEMM when FMM
        will not pay off.  A classical pick (or
        ``algorithm="classical"`` on the direct engine) runs as one BLAS
        call — no plan compile, lowering or arena; ``fusion`` is still
        validated, and ``last_report()`` shows ``core_path="blas"``.  An
        out-of-core lowering keeps the runtime path: ``fusion="tiled"``,
        or a caller's ``C`` under ``"auto"`` past the memory budget.  Auto
        resolves each call signature (operand shapes and dtypes, ``C``'s
        shape and dtype, the knobs) once per process and memoizes the
        route until the machine record, the tunables or the default
        store change; a repeat classical call is then one
        ``np.matmul`` and one report.
    params : BlockingParams, optional
        Cache/register blocking for the blocked engine.
    threads : {1}, optional
        Accepted for the perf ledger, which passes ``threads=1``.  Every
        execution runs on one worker and BLAS threads each leaf product
        (``OPENBLAS_NUM_THREADS`` sets how many); any other count raises
        ``ValueError`` up front.
    mode : {"slab", "micro"}, optional
        Blocked-engine macro-kernel granularity.
    dtype : dtype-like, optional
        Force float32 or float64 execution; by default float32/float64
        operands are preserved end-to-end and other real types promote
        to float64.
    tune : {"readonly", "off"}, optional
        Machine-calibration use under ``engine="auto"``
        (:mod:`repro.tune`): ``"readonly"`` (default) prices the model
        with this host's machine — the first model-path call per wisdom
        store measures the host (about 40 ms) and records the fit, and
        ``repro tune --calibrate`` re-measures; ``"off"`` never touches
        the store (the pure model on a generic machine).  Ignored for
        explicit engines.
    fusion : {"auto", "staged", "fused", "tiled"}, optional
        Runtime lowering mode: ``"staged"`` materializes every
        gather/product/scatter slab (O(R) live product buffers);
        ``"fused"`` streams each product group through recycled buffers
        (O(group) live buffers — the paper's fused pipeline);
        ``"tiled"`` runs the fused pipeline out-of-core — operands may
        be ``np.memmap``-backed, slab-scale temporaries spill to
        mmap-backed arena buffers, and the product/scatter phase
        streams through a bounded RAM window sized by the ``tile_rows``
        / ``mem_budget_bytes`` tunables (``REPRO_MEM_BUDGET``) —
        bitwise-equal to ``"fused"``.
        ``"auto"`` (default) resolves from the variant, the staged slab
        footprint, and the configured memory budget
        (:func:`repro.core.spec.resolve_fusion`: past the budget the
        multiply goes out-of-core by itself).
        The blocked engine's packed leaf kernel has no staged slab
        interpretation, so under ``engine="blocked"`` every plan —
        including an explicit ``"staged"`` request — executes on the
        fused pipeline (check ``last_report().fusion``).
    backend : {"reference"}, optional
        Accepted for the perf ledger, which passes it; there is one leaf
        backend.  Any other value raises ``ValueError``.
    workers : {"threads"}, optional
        Accepted for the perf ledger, which passes it; there is one
        worker mode.  Any other value raises ``ValueError``.

    Returns
    -------
    C : (m, n) ndarray
        The accumulated product, same array as ``C`` when one was passed.

    Raises
    ------
    ValueError
        Incompatible operand shapes, unknown algorithm/schedule spec
        (with the list of known catalog names), malformed ``atom@count``
        token, bad ``levels``/``threads``/``tune``/``dtype``.
    TypeError
        A spec form the grammar does not recognize at all, complex
        operands, or a ``C`` that cannot hold the compute dtype — the
        last two before any work starts.

    Notes
    -----
    Non-finite inputs are not checked, and FMM spreads them further
    than ``A @ B``.  The BLAS route (classical) returns exactly
    ``A @ B``'s NaN and signed-Inf entries.  An FMM schedule adds
    blocks of an operand into operand sums, so one NaN in ``A``
    reaches more outputs (on 64x64: 64 under ``A @ B``, 128 under
    one Strassen level, 256 under two), and an Inf meets its own
    negation in those sums and becomes NaN (128 NaN and no Inf under
    one Strassen level, where ``A @ B`` gives 64 Infs).  Every output
    ``A @ B`` makes non-finite is non-finite under FMM too.

    See Also
    --------
    multiply_batched : one compiled plan amortized over a stack.
    repro.core.compile.compile : the underlying plan compiler/cache.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import multiply
    >>> A = np.random.rand(64, 64); B = np.random.rand(64, 64)
    >>> C = multiply(A, B, algorithm="strassen", levels=2)
    >>> np.allclose(C, A @ B)
    True

    Mixed-level schedules pair a rectangular outer split with square
    inner recursion (non-divisible sizes peel automatically):

    >>> A = np.random.rand(97, 65); B = np.random.rand(65, 130)
    >>> C = multiply(A, B, algorithm="<3,2,3>@1,strassen@1")
    >>> np.allclose(C, A @ B)
    True
    """
    tune = normalize_tune(tune)
    fusion = normalize_fusion(fusion)
    check_threads(threads)
    check_backend_workers(backend, workers)
    if engine == "auto":
        route = _memo_blas_route(False, A, B, C, dtype, tune, fusion)
        if route is not None:
            return runtime.run_blas(A, B, C, route.report)
    A, B, route = _resolve(False, A, B, C, algorithm, levels, variant, engine,
                           dtype, tune, fusion)
    A = _contig_operand(A, route.dt, "A")
    B = _contig_operand(B, route.dt, "B")
    if route.depth:
        return runtime.run_blas(A, B, C, route.report)
    return _run_plan(A, B, C, route, fusion, params, mode)


def multiply_batched(
    A: np.ndarray,
    B: np.ndarray,
    C: np.ndarray | None = None,
    algorithm="strassen",
    levels: int = 1,
    variant: str = "abc",
    engine: str = "direct",
    params: BlockingParams | None = None,
    threads: int | None = None,
    mode: str = "slab",
    dtype=None,
    tune: str = "readonly",
    fusion: str = "auto",
    backend: str | None = None,
    workers: str | None = None,
) -> np.ndarray:
    """Batched fast multiply: ``C[i] + A[i] @ B[i]`` for a same-shape stack.

    The configuration is compiled **once** and amortized over the whole
    batch, and both engines route the stack through the same runtime
    pipelines: the direct path folds the batch into its staged slabs or
    fused group buffers; the blocked path walks batch elements through
    the identical phases with the packed leaf kernel.

    Parameters
    ----------
    A : (batch, m, k) or (m, k) array_like
        Left operand stack; 2-D shares one matrix across the batch.
    B : (batch, k, n) or (k, n) array_like
        Right operand stack; 2-D shares one matrix across the batch.
        At least one operand must be 3-D.
    C : (batch, m, n) ndarray, optional
        Accumulation target; allocated (zeros) when omitted.
    algorithm, levels, variant, engine, params, threads, mode, dtype, tune, \
fusion, backend, workers
        As in :func:`multiply` (``algorithm`` accepts the same schedule
        grammar, including ``"atom@count"`` strings, and ``tune`` the
        same modes: the first model-path call per wisdom store measures
        the host and records it, ``"off"`` never touches the store).  A
        classical pick runs the stack as one batched BLAS call
        (``np.matmul``) with no plan or arena, and a shared 2-D operand
        is broadcast there rather than copied per matrix.

    Returns
    -------
    C : (batch, m, n) ndarray
        The accumulated result stack.

    Raises
    ------
    ValueError
        Mismatched batch counts or trailing dims, both operands 2-D, or
        any spec error :func:`multiply` raises.
    TypeError
        As in :func:`multiply`: complex operands, or a ``C`` that cannot
        hold the compute dtype.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import multiply_batched
    >>> A = np.random.rand(8, 32, 48); B = np.random.rand(8, 48, 32)
    >>> C = multiply_batched(A, B, algorithm="strassen")
    >>> np.allclose(C, A @ B)
    True
    """
    tune = normalize_tune(tune)
    fusion = normalize_fusion(fusion)
    check_threads(threads)
    check_backend_workers(backend, workers)
    if engine == "auto":
        route = _memo_blas_route(True, A, B, C, dtype, tune, fusion)
        if route is not None:
            return runtime.run_blas(A, B, C, route.report)
    A, B, route = _resolve(True, A, B, C, algorithm, levels, variant, engine,
                           dtype, tune, fusion)
    dt = route.dt
    if route.depth:
        # np.matmul broadcasts a shared operand over the stack itself.
        return runtime.run_blas(np.ascontiguousarray(A, dtype=dt),
                                np.ascontiguousarray(B, dtype=dt), C,
                                route.report)
    m, k, n = route.shape
    A = np.ascontiguousarray(np.broadcast_to(A, (route.batch, m, k)), dtype=dt)
    B = np.ascontiguousarray(np.broadcast_to(B, (route.batch, k, n)), dtype=dt)
    return _run_plan(A, B, C, route, fusion, params, mode)


def _check_mult_shapes(A, B, C):
    if A.shape[1] != B.shape[0] or C.shape != (A.shape[0], B.shape[1]):
        raise ValueError(
            f"inconsistent shapes: A {A.shape}, B {B.shape}, C {C.shape}"
        )
