"""Execution engines and the public ``multiply`` entry points.

Every FMM multiply flows through one compiled artifact: the
:class:`~repro.core.compile.CompiledPlan` produced (and LRU-cached) by
:func:`repro.core.compile.compile`.  The classical ``<1,1,1>`` schedule
on the direct engine is the exception: it has nothing to fuse or stage,
so :func:`multiply` / :func:`multiply_batched` run it as one BLAS call
(:func:`repro.core.runtime.execute_blas`) before any plan is compiled,
and :class:`DirectEngine` does the same with a classical plan it is
handed.  Since the task-graph refactor the
engines are thin *clients of the runtime*
(:mod:`repro.core.runtime`) — they re-derive nothing per call and own no
execution loop of their own:

* :class:`DirectEngine` — hands the compiled plan to
  :func:`repro.core.runtime.execute_plan`: the plan's task DAG
  (gather/product/scatter over arena workspace) runs on ``threads``
  workers from the shared pool; ``threads=1`` executes the identical
  schedule inline.  Fast and simple; the correctness oracle for
  everything else.
* :class:`BlockedEngine` — the simulated-BLIS path: the *same* task
  graph, with :class:`~repro.core.variants.BlisProductLeaf` as its leaf
  kernel — every product runs through the packed five-loop GEMM with
  variant-specific fusion, instrumented with the counters the
  performance model prices.  Thread-parallel across products using the
  same shared runtime pools.

Public API on top: :func:`multiply` (with model-guided
``engine="auto"`` dispatch, which also picks a thread count from the
machine model), :func:`multiply_batched` (one compiled plan amortized
over a stack of same-shape multiplies), and dtype generality —
float32/float64 operands are preserved end-to-end, everything else is
promoted to float64.  Peeling for non-divisible sizes (paper §4.1) and
per-level hybrid algorithms (§5.2) come with the plan.
"""

from __future__ import annotations

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
    classical_depth,
    normalize_backend,
    normalize_fusion,
    normalize_threads,
    normalize_tune,
    normalize_variant,
    normalize_workers,
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

    float32/float64 are preserved; any other input type (ints, float16...)
    promotes to float64 like a NumPy ufunc would round up.
    """
    if dtype is not None:
        dt = np.dtype(dtype)
        if dt not in SUPPORTED_DTYPES:
            raise ValueError(f"unsupported dtype {dt}")
        return dt
    dt = np.result_type(*arrays)
    return dt if dt in SUPPORTED_DTYPES else np.dtype(np.float64)


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


def _resolve_workers(workers, procs, threads):
    """Fold the ``workers``/``procs`` knobs into a ``(workers, threads)`` pair.

    ``procs=N`` is shorthand for ``workers="processes", threads=N``; it
    conflicts with an explicit ``workers="threads"`` or a *different*
    explicit ``threads`` count.
    """
    workers = normalize_workers(workers)
    if procs is None:
        return workers, threads
    procs = normalize_threads(procs)
    if workers is not None and workers != "processes":
        raise ValueError(
            f"procs={procs} requests the process runtime; it cannot be "
            f"combined with workers={workers!r}"
        )
    if threads is not None and threads != procs:
        raise ValueError(
            f"procs={procs} conflicts with threads={threads}; pass one "
            "worker count, not two"
        )
    return "processes", procs


class DirectEngine:
    """Thin client of the task-graph runtime (:mod:`repro.core.runtime`).

    Parameters
    ----------
    threads:
        Worker count for the task DAG; 1 (default) executes the same
        schedule inline with no pool involved.
    vector_cap:
        Per-element workload bound (elements across the stacked S/T/M
        intermediates) under which the arena task-graph path is used;
        larger cores use the serial per-step gather loop to bound
        workspace.
    chunk_target:
        Intermediate-size target (elements) for slicing a batch into
        cache-resident chunks on the task-graph path.
    backend:
        Leaf-kernel backend name from the :mod:`repro.kernels` registry
        (``"reference"`` default; ``"specialized"`` / ``"numba"`` compile
        per-plan whole-core kernels and transparently delegate to the
        interpreted pipeline for call shapes they do not serve — check
        ``last_report.backend_path``).
    workers:
        Runtime worker mode: ``"threads"`` (default) runs the task DAG on
        the shared thread pool; ``"processes"`` on the shared-memory
        process pool (GIL-free; see :mod:`repro.core.procpool`).
    """

    def __init__(
        self,
        threads: int = 1,
        vector_cap: int = runtime.DEFAULT_VECTOR_CAP,
        chunk_target: int = runtime.DEFAULT_CHUNK_TARGET,
        backend: str | None = None,
        workers: str | None = None,
    ) -> None:
        self.threads = normalize_threads(threads) or 1
        self.vector_cap = int(vector_cap)
        self.chunk_target = int(chunk_target)
        self.backend = normalize_backend(backend)
        self.workers = normalize_workers(workers)
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
                threads=self.threads, levels=len(cplan.ml.levels),
            )
        else:
            out = runtime.execute_plan(
                cplan, A, B, C,
                threads=self.threads,
                vector_cap=self.vector_cap,
                chunk_target=self.chunk_target,
                backend=self.backend,
                workers=self.workers,
            )
        self.last_report = runtime.last_report()
        return out


class BlockedEngine:
    """Simulated-BLIS client of the task-graph runtime.

    Executes the *same* lowered task graphs as :class:`DirectEngine`
    (there is no separate blocked loop nest), with
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
        Worker count for the product-level data parallelism; 1 =
        sequential.  Workers come from the shared runtime pools
        (:func:`repro.core.runtime.get_pool`) — no per-call pool churn.
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
        return runtime.get_pool(self.threads) if self.threads > 1 else None

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
        the runtime walks batch elements through the same task graph
        (the packed leaf kernel is 2-D).
        """
        _check_exec_shapes(cplan, A, B, C)
        self.last_peel = cplan.peel_plan
        self.last_plan = cplan
        leaf = BlisProductLeaf(
            variant=cplan.variant,
            params=self.params,
            counters=self.counters,
            mode=self.mode,
        )
        out = runtime.execute_plan(cplan, A, B, C, threads=self.threads, leaf=leaf)
        self.last_report = runtime.last_report()
        return out

    def gemm(self, A: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray:
        """Plain packed GEMM (the BLIS baseline the paper compares against)."""
        _check_mult_shapes(A, B, C)
        packed_gemm(
            [(1.0, A)], [(1.0, B)], [(1.0, C)],
            self.params, self.counters, mode=self.mode, pool=self._pool(),
        )
        return C


def _dispatch(
    engine: str, cplan: CompiledPlan, A, B, C, params, threads, mode,
    backend: str = "reference", workers: str | None = None,
):
    if engine == "direct":
        DirectEngine(threads=threads, backend=backend,
                     workers=workers).execute(cplan, A, B, C)
    elif engine == "blocked":
        if backend != "reference":
            raise ValueError(
                "engine='blocked' executes through its packed BLIS leaf "
                f"kernel; backend={backend!r} is only valid with the "
                "direct engine"
            )
        if workers == "processes":
            raise ValueError(
                "engine='blocked' is an in-process instrumented substrate "
                "(its counters live in this process); workers='processes' "
                "is only valid with the direct engine"
            )
        BlockedEngine(
            params=params, variant=cplan.variant, threads=threads, mode=mode
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
    as one BLAS call (:func:`repro.core.runtime.execute_blas`) instead of
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
    procs: int | None = None,
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
        is *added* into it, BLAS-style.
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
        ``"direct"`` runs the task-graph runtime (fast NumPy path);
        ``"blocked"`` the instrumented simulated-BLIS substrate;
        ``"auto"`` picks schedule, variant, engine *and thread count*
        from wisdom + the §4.4 performance model, falling back to
        classical GEMM when FMM will not pay off.  A classical pick (or
        ``algorithm="classical"`` on the direct engine) runs as one BLAS
        call — no plan compile, task graph, arena or pool; ``threads``,
        ``backend``, ``workers`` and ``fusion`` are still validated, and
        ``last_report()`` shows ``core_path="blas"``.  A ``C`` that cannot
        absorb the compute dtype (e.g. integer) keeps the runtime path,
        and so does an out-of-core lowering: ``fusion="tiled"``, or a
        caller's ``C`` under ``"auto"`` past the memory budget.
    params : BlockingParams, optional
        Cache/register blocking for the blocked engine.
    threads : int, optional
        Worker count for the runtime (``1`` = same schedule, serial).
        Defaults to 1 for explicit engines and to the model's (or
        wisdom's) pick under ``engine="auto"``.  ``threads=0`` or a
        negative count raises ``ValueError`` up front.
    mode : {"slab", "micro"}, optional
        Blocked-engine macro-kernel granularity.
    dtype : dtype-like, optional
        Force float32 or float64 execution; by default float32/float64
        operands are preserved end-to-end and anything else promotes to
        float64.
    tune : {"readonly", "on", "off"}, optional
        Autotuning-wisdom use under ``engine="auto"`` (:mod:`repro.tune`):
        ``"readonly"`` (default) dispatches on the measured-best config
        when one is stored, ``"on"`` additionally tunes on a miss,
        ``"off"`` never touches the store (the pure model on a generic
        machine).  Under ``"readonly"`` and ``"on"`` a miss prices the
        model with this host's machine: the first such call per wisdom
        store measures the host (about 40 ms) and records the fit;
        ``repro tune --calibrate`` re-measures.  Ignored for explicit
        engines.
    fusion : {"auto", "staged", "fused", "tiled"}, optional
        Runtime lowering mode: ``"staged"`` materializes every
        gather/product/scatter slab (O(R) live product buffers);
        ``"fused"`` streams each product through per-worker recycled
        buffers (O(threads) live buffers — the paper's fused pipeline);
        ``"tiled"`` runs the same task graph out-of-core — operands may
        be ``np.memmap``-backed, slab-scale temporaries spill to
        mmap-backed arena buffers, and the product/scatter phase
        streams through a bounded RAM window sized by the ``tile_rows``
        / ``mem_budget_bytes`` tunables (``REPRO_MEM_BUDGET``) —
        bitwise-equal to ``"fused"`` at the same worker count.
        ``"auto"`` (default) resolves from the variant, the staged slab
        footprint, and the configured memory budget
        (:func:`repro.core.spec.resolve_fusion`: past the budget the
        multiply goes out-of-core by itself).
        The blocked engine's packed leaf kernel has no staged slab
        interpretation, so under ``engine="blocked"`` every plan —
        including an explicit ``"staged"`` request — executes on the
        fused pipeline (check ``last_report().fusion``).
    backend : {"reference", "specialized", "numba"}, optional
        Leaf-kernel backend (:mod:`repro.kernels`): ``"reference"`` is
        the numpy task-graph interpreter; ``"specialized"`` compiles one
        dependency-free whole-core kernel per plan (coefficient loops
        unrolled, gather/scatter indices precomputed) and caches it
        alongside the plan; ``"numba"`` JITs the same emitted kernels
        when numba is importable.  Compiling backends transparently
        delegate to the interpreted pipeline for call shapes they do not
        serve (batched, threaded, non-contiguous) — check
        ``last_report().backend_path``.  Default picks the backend under
        ``engine="auto"`` (wisdom / model priced) and ``"reference"``
        otherwise.  Only valid with the direct engine.
    workers : {"threads", "processes"}, optional
        Runtime worker mode.  ``"threads"`` runs the task DAG on the
        shared thread pool; ``"processes"`` runs the core on a persistent
        pool of worker *processes* over shared-memory operand segments
        (:mod:`repro.core.procpool`) — GIL-free, bitwise-identical to the
        thread path at the same worker count.  Default resolves under
        ``engine="auto"`` (wisdom / model priced, observable via
        ``last_report().worker_mode``) and ``"threads"`` otherwise.
        At ``threads=1`` either mode executes inline (serial).  Only
        valid with the direct engine.
    procs : int, optional
        Shorthand for ``workers="processes", threads=procs``.  Conflicts
        with ``workers="threads"`` and with a *different* explicit
        ``threads`` count.

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
        A spec form the grammar does not recognize at all.

    See Also
    --------
    multiply_batched : one compiled plan amortized over a stack.
    repro.core.compile.compile : the underlying plan compiler/cache.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import multiply
    >>> A = np.random.rand(64, 64); B = np.random.rand(64, 64)
    >>> C = multiply(A, B, algorithm="strassen", levels=2, threads=2)
    >>> np.allclose(C, A @ B)
    True

    Mixed-level schedules pair a rectangular outer split with square
    inner recursion (non-divisible sizes peel automatically):

    >>> A = np.random.rand(97, 65); B = np.random.rand(65, 130)
    >>> C = multiply(A, B, algorithm="<3,2,3>@1,strassen@1")
    >>> np.allclose(C, A @ B)
    True
    """
    threads = normalize_threads(threads)
    tune = normalize_tune(tune)
    fusion = normalize_fusion(fusion)
    workers, threads = _resolve_workers(workers, procs, threads)
    if backend is not None:
        backend = normalize_backend(backend)
    A = np.asarray(A)
    B = np.asarray(B)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise ValueError(f"incompatible operand shapes {A.shape} x {B.shape}")
    dt = _compute_dtype(A, B, dtype=dtype)
    A = _contig_operand(A, dt, "A")
    B = _contig_operand(B, dt, "B")
    m, k = A.shape
    n = B.shape[1]
    if engine == "auto":
        from repro.core.selection import auto_config

        (algorithm, levels, variant, engine, auto_threads, auto_backend,
         auto_workers) = (
            auto_config(m, k, n, dtype=dt.name, threads=threads, tune=tune)
        )
        if threads is None:
            threads = auto_threads
        if backend is None:
            backend = auto_backend
        if workers is None:
            workers = auto_workers
    if threads is None:
        threads = 1
    if backend is None:
        backend = "reference"
    depth = _blas_depth(engine, algorithm, levels, variant, fusion, dt, C,
                        (m, k, n))
    if depth:
        return runtime.execute_blas(
            A, B, C, dtype=dt, variant=normalize_variant(variant),
            threads=threads, levels=depth,
        )
    if C is None:
        C = np.zeros((m, n), dtype=dt)
    cplan = plancache.compile(
        (m, k, n), algorithm, levels, variant, dtype=dt, fusion=fusion
    )
    _dispatch(engine, cplan, A, B, C, params, threads, mode, backend, workers)
    return C


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
    procs: int | None = None,
) -> np.ndarray:
    """Batched fast multiply: ``C[i] + A[i] @ B[i]`` for a same-shape stack.

    The configuration is compiled **once** and amortized over the whole
    batch, and both engines route the stack through the same runtime
    pipelines: the direct path folds the batch into its task slabs
    (staged) or per-worker buffers (fused) and fans tasks out over
    ``threads`` workers; the blocked path walks batch elements through
    the identical task graph with the packed leaf kernel.

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
fusion, backend, workers, procs
        As in :func:`multiply` (``algorithm`` accepts the same schedule
        grammar, including ``"atom@count"`` strings, and ``tune`` the
        same modes: the first model-path call per wisdom store measures
        the host and records it, ``"off"`` never touches the store); under
        ``engine="auto"`` the thread pick weighs the *whole batch's*
        flops, not one element's — except for a classical pick, which
        runs the stack as one batched BLAS call (``np.matmul``) with no
        re-pick, plan or arena.  Compiling backends serve 2-D calls
        only, so a batched request with ``backend="specialized"`` is
        valid but executes on the interpreted pipeline
        (``last_report().backend_path == "interpreted"``).

    Returns
    -------
    C : (batch, m, n) ndarray
        The accumulated result stack.

    Raises
    ------
    ValueError
        Mismatched batch counts or trailing dims, both operands 2-D, or
        any spec error :func:`multiply` raises.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import multiply_batched
    >>> A = np.random.rand(8, 32, 48); B = np.random.rand(8, 48, 32)
    >>> C = multiply_batched(A, B, algorithm="strassen")
    >>> np.allclose(C, A @ B)
    True
    """
    threads = normalize_threads(threads)
    tune = normalize_tune(tune)
    fusion = normalize_fusion(fusion)
    workers, threads = _resolve_workers(workers, procs, threads)
    if backend is not None:
        backend = normalize_backend(backend)
    A = np.asarray(A)
    B = np.asarray(B)
    if A.ndim == 2 and B.ndim == 2:
        raise ValueError("batched multiply needs a 3-D operand; use multiply()")
    if A.ndim == 2:
        A = A[None]
    if B.ndim == 2:
        B = B[None]
    if A.ndim != 3 or B.ndim != 3:
        raise ValueError(
            f"operands must be (batch, rows, cols) stacks, got {A.shape} x {B.shape}"
        )
    if A.shape[2] != B.shape[1]:
        raise ValueError(f"incompatible operand shapes {A.shape} x {B.shape}")
    batch = max(A.shape[0], B.shape[0])
    if A.shape[0] not in (1, batch) or B.shape[0] not in (1, batch):
        raise ValueError(
            f"batch counts disagree: A has {A.shape[0]}, B has {B.shape[0]}"
        )
    dt = _compute_dtype(A, B, dtype=dtype)
    m, k, n = A.shape[1], A.shape[2], B.shape[2]
    A = np.ascontiguousarray(np.broadcast_to(A, (batch, m, k)), dtype=dt)
    B = np.ascontiguousarray(np.broadcast_to(B, (batch, k, n)), dtype=dt)
    if C is not None and C.shape != (batch, m, n):
        raise ValueError(f"C has shape {C.shape}, expected {(batch, m, n)}")
    auto = engine == "auto"
    if auto:
        from repro.core.selection import auto_config

        algorithm, levels, variant, engine, _, auto_backend, auto_workers = (
            auto_config(m, k, n, dtype=dt.name, threads=threads, tune=tune)
        )
        if backend is None:
            backend = auto_backend
    depth = _blas_depth(engine, algorithm, levels, variant, fusion, dt, C,
                        (m, k, n))
    if auto:
        if threads is None and not depth:
            from repro.core.parallel import pick_threads, pick_workers

            # Re-pick with the whole batch in view: the runtime folds the
            # batch into its task slabs, so the parallelism threshold is
            # the batch total's flops, not one element's.  (One BLAS call
            # has nothing to shard, so the BLAS route skips this.)
            ml = None if classical_depth(algorithm, levels) else (
                resolve_levels(algorithm, levels)
            )
            threads = pick_threads(
                m, k, n, ml, variant,
                min_flops=2.0 * 256**3 / max(batch, 1),
            )
            # The worker-mode price depends on the thread count, so the
            # batch-aware re-pick invalidates the auto_config verdict.
            auto_workers = pick_workers(
                m, k, n, ml, variant, threads=threads, dtype=dt
            )
        if workers is None:
            workers = auto_workers
    if threads is None:
        threads = 1
    if backend is None:
        backend = "reference"
    if depth:
        return runtime.execute_blas(
            A, B, C, dtype=dt, variant=normalize_variant(variant),
            threads=threads, levels=depth,
        )
    if C is None:
        C = np.zeros((batch, m, n), dtype=dt)
    cplan = plancache.compile(
        (m, k, n), algorithm, levels, variant, dtype=dt, fusion=fusion
    )
    _dispatch(engine, cplan, A, B, C, params, threads, mode, backend, workers)
    return C


def _check_mult_shapes(A, B, C):
    if A.shape[1] != B.shape[0] or C.shape != (A.shape[0], B.shape[1]):
        raise ValueError(
            f"inconsistent shapes: A {A.shape}, B {B.shape}, C {C.shape}"
        )
