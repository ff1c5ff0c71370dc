"""Model-guided algorithm selection — the poly-algorithm of §4.4 / Fig. 8.

The generator's performance model is cheap to evaluate, so for a given
problem size/shape we can rank *every* generated implementation (23 shapes
x levels x hybrid pairs x 3 variants — hundreds of candidates) without
running any of them.  Following the paper, the top-2 model picks are then
measured (fringe effects are invisible to the model) and the better one is
chosen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from repro.algorithms.catalog import FIG2_SHAPES, get_algorithm
from repro.blis.simulator import simulate_time
from repro.core.kronecker import MultiLevelFMM
from repro.core.spec import Schedule
from repro.model.machines import MachineParams
from repro.model.perfmodel import (
    ModelPrediction,
    effective_gflops,
    predict_fmm,
    predict_gemm,
)

__all__ = [
    "Candidate",
    "enumerate_candidates",
    "hybrid_shapes_for",
    "rank_candidates",
    "select",
    "auto_config",
]

#: Default hybrid building blocks (§5.2 evaluates hybrids of these shapes).
_DEFAULT_HYBRID_SHAPES = ((2, 2, 2), (2, 3, 2), (3, 2, 3), (3, 3, 3))

#: Per-level shapes only offer aspect ratios up to 6/2; clamp the problem
#: skew to the log2 range a single base case can actually absorb.
_MAX_LEVEL_SKEW = math.log2(3.0)


@lru_cache(maxsize=256)
def hybrid_shapes_for(
    m: int, k: int, n: int, extra: int = 4
) -> tuple[tuple[int, int, int], ...]:
    """Hybrid building blocks matched to the problem's aspect ratio.

    The §5.2 default set covers square-ish problems; for skewed problems
    the catalog shapes whose own ``(m~/k~, n~/k~)`` log-ratios best track
    the problem's ``(m/k, n/k)`` are appended (``extra`` of them), so
    mixed-level schedule enumeration can partition a tall-skinny or wide
    problem with matching rectangular bases instead of forcing square
    cuts at every level.

    Degenerate problems (any dimension < 1) have no aspect ratio; they
    fall through to the default set so empty multiplies keep dispatching
    via the classical fallback instead of crashing here.
    """
    if min(m, k, n) < 1:
        return _DEFAULT_HYBRID_SHAPES
    pm = min(max(math.log2(m / k), -_MAX_LEVEL_SKEW), _MAX_LEVEL_SKEW)
    pn = min(max(math.log2(n / k), -_MAX_LEVEL_SKEW), _MAX_LEVEL_SKEW)

    def _misfit(shape: tuple[int, int, int]) -> tuple[float, int]:
        sm, sk, sn = shape
        fit = abs(math.log2(sm / sk) - pm) + abs(math.log2(sn / sk) - pn)
        return (fit, sm * sk * sn)  # prefer smaller shapes on ties

    ranked = sorted(FIG2_SHAPES, key=_misfit)
    merged = dict.fromkeys(_DEFAULT_HYBRID_SHAPES)
    merged.update(dict.fromkeys(ranked[: max(extra, 0)]))
    return tuple(merged)


@dataclass(frozen=True)
class Candidate:
    """One generated implementation: per-level schedule + variant + prediction."""

    shapes: tuple[tuple[int, int, int], ...]
    variant: str
    prediction: ModelPrediction

    @property
    def levels(self) -> int:
        return len(self.shapes)

    @property
    def schedule(self) -> Schedule:
        """The candidate's per-level schedule as a first-class object."""
        return Schedule(self.shapes)

    @property
    def signature(self) -> str:
        """Canonical schedule string, e.g. ``"<2,2,2>@2"`` (wisdom key form)."""
        return self.schedule.signature

    @property
    def fusion(self) -> str:
        """Runtime lowering mode this candidate will compile to.

        The §4.1 variants *are* the lowering modes of the streaming
        runtime: ``naive`` executes staged (every temporary
        materialized), ``ab``/``abc`` execute the fused per-worker
        pipeline once the staged slabs outgrow the cache — and, past
        the configured memory budget, the out-of-core **tiled**
        pipeline whose RAM window
        :func:`repro.model.perfmodel.predict_tile_window_bytes`
        prices.  Resolved with the same rule the plan compiler applies
        (:func:`repro.core.spec.resolve_fusion` over this candidate's
        problem size, schedule and float64 operand-slab footprint), so
        the label always matches what ``compile()`` will actually run.
        """
        from repro.core.spec import (
            operand_slab_bytes,
            resolve_fusion,
            staged_slab_elements,
        )

        p = self.prediction
        ml = self.multilevel()
        return resolve_fusion(
            "auto", self.variant,
            staged_slab_elements(p.m, p.k, p.n, ml),
            operand_slab_bytes(p.m, p.k, p.n, ml),
        )

    @property
    def workspace_bytes(self) -> int:
        """Priced peak RAM workspace of this candidate's lowering.

        Staged/fused candidates price the full in-core arena footprint;
        a candidate that resolves to the ``tiled`` lowering prices only
        its bounded RAM window (everything slab-scale spills to mmap) —
        the same number the serve admission controller charges, so
        ranking by memory and admitting jobs use one model.
        """
        from repro.model.perfmodel import predict_workspace_bytes

        p = self.prediction
        return predict_workspace_bytes(
            p.m, p.k, p.n, self.multilevel(), fusion=self.fusion
        )

    @property
    def label(self) -> str:
        stack = "+".join("<%d,%d,%d>" % s for s in self.shapes)
        return f"{stack}/{self.variant}"

    def multilevel(self) -> MultiLevelFMM:
        return MultiLevelFMM([get_algorithm(s) for s in self.shapes])


def enumerate_candidates(
    m: int,
    k: int,
    n: int,
    machine: MachineParams,
    max_levels: int = 2,
    variants: Sequence[str] = ("naive", "ab", "abc"),
    one_level_shapes: Iterable[tuple[int, int, int]] | None = None,
    hybrid_shapes: Iterable[tuple[int, int, int]] | None = None,
) -> list[Candidate]:
    """Model-evaluate the implementation family for one problem size.

    Level-1 candidates cover every catalog shape; deeper levels cover all
    ordered stacks of the (smaller) hybrid shape set, since 23^L explodes
    while the paper's hybrids combine a handful of small shapes.  The
    hybrid set defaults to :func:`hybrid_shapes_for` — the §5.2 shapes
    plus the catalog shapes best matching the problem's aspect ratio —
    so skewed problems enumerate mixed rectangular schedules.
    """
    shapes1 = tuple(one_level_shapes or FIG2_SHAPES)
    shapes_h = tuple(hybrid_shapes or hybrid_shapes_for(m, k, n))
    stacks: list[tuple[tuple[int, int, int], ...]] = [(s,) for s in shapes1]
    prev: list[tuple[tuple[int, int, int], ...]] = [(s,) for s in shapes_h]
    for _ in range(2, max_levels + 1):
        nxt = [stack + (s,) for stack in prev for s in shapes_h]
        stacks.extend(nxt)
        prev = nxt

    out: list[Candidate] = []
    for stack in stacks:
        ml = MultiLevelFMM([get_algorithm(s) for s in stack])
        Mt, Kt, Nt = ml.dims_total
        if m < Mt or k < Kt or n < Nt:
            continue  # partition coarser than the problem
        for var in variants:
            pred = predict_fmm(m, k, n, ml, var, machine)
            out.append(Candidate(shapes=stack, variant=var, prediction=pred))
    return out


def rank_candidates(candidates: list[Candidate]) -> list[Candidate]:
    """Sort by predicted time, fastest first."""
    return sorted(candidates, key=lambda c: c.prediction.time)


def select(
    m: int,
    k: int,
    n: int,
    machine: MachineParams,
    top: int = 2,
    max_levels: int = 2,
    measure: Callable[[Candidate], float] | None = None,
    **enum_kwargs,
) -> tuple[Candidate, list[Candidate]]:
    """Pick the implementation for ``(m, k, n)`` the way the paper does.

    The model ranks all candidates; the ``top`` best are then *measured*
    (default: the fringe-aware loop simulator) and the fastest measured one
    wins.  Returns ``(winner, ranked_candidates)``.
    """
    ranked = rank_candidates(
        enumerate_candidates(m, k, n, machine, max_levels=max_levels, **enum_kwargs)
    )
    if not ranked:
        raise ValueError(f"no candidate fits problem {(m, k, n)}")
    finalists = ranked[: max(1, top)]

    def _simulated_measure(c: Candidate) -> float:
        return simulate_time(m, k, n, c.multilevel(), c.variant, machine)

    measure_fn = measure if measure is not None else _simulated_measure
    winner = min(finalists, key=measure_fn)
    return winner, ranked


def _model_backend(threads: int, workers: str = "threads") -> str:
    """The model's pick of the ``backend`` dimension for one worker setup.

    Ranks the *available* registered backends by their priced per-call
    dispatch overhead (:func:`repro.model.perfmodel.
    predict_backend_overhead`), registration order breaking ties — so
    serial and thread-pooled calls price the specialized compiled kernels
    as the win, and a process-runtime call (which a compiling backend
    would delegate anyway — worker processes cannot share its buffers)
    resolves to the reference interpreter.
    """
    from repro import kernels
    from repro.model.perfmodel import predict_backend_overhead

    names = [b.name for b in kernels.available_backends()]
    return min(
        names,
        key=lambda nm: (
            predict_backend_overhead(nm, threads, workers), names.index(nm)),
    )


@lru_cache(maxsize=1024)
def _model_config(
    m: int,
    k: int,
    n: int,
    machine: MachineParams | None = None,
    max_levels: int = 2,
) -> tuple:
    """Pure model-guided configuration (the cold path of :func:`auto_config`).

    Ranks the generated family with the §4.4 performance model and returns
    ``(algorithm, levels, variant, engine, threads, backend, workers)``
    ready for the plan compiler and runtime: the winning per-level shape
    stack and variant when the model predicts FMM beats the GEMM baseline,
    else the classical ``<1,1,1>`` plan.  The execution engine is the
    direct task-graph runtime — the wall-clock-fast path of this
    substrate; callers wanting the instrumented blocked substrate ask for
    it explicitly.

    A classical pick is the serial config ``threads=1``,
    ``backend="reference"``, ``workers="threads"``: it runs as one BLAS
    call, which threads itself, so there is no pool, leaf backend or
    worker mode to price (and a classical plan that stays on the runtime
    has a single product to run).  For an FMM pick ``threads`` comes from
    the canonical multicore scaling model
    (:func:`repro.core.parallel.pick_threads`, which walks the
    paper-testbed ``machine_factory`` since ``machine`` here is a single
    configuration point, not a cores->bandwidth family), capped by the
    cores this host actually has.  ``backend`` is the priced leaf-backend
    pick (:func:`_model_backend`); ``workers`` the priced thread-vs-
    process runtime pick at that thread count
    (:func:`repro.core.parallel.pick_workers`).

    Decisions are memoized per ``(m, k, n, machine, max_levels)``, so the
    enumeration cost is paid once per problem shape *per process* — the
    wisdom store is what survives restarts.
    """
    from repro.core.parallel import pick_threads, pick_workers
    from repro.model.machines import generic_laptop

    machine = machine or generic_laptop()
    candidates = enumerate_candidates(m, k, n, machine, max_levels=max_levels)
    best = rank_candidates(candidates)[0] if candidates else None
    if best is None or best.prediction.time >= predict_gemm(m, k, n, machine).time:
        return ("classical", 1, "abc", "direct", 1, "reference", "threads")
    ml = best.multilevel()
    threads = pick_threads(m, k, n, ml, best.variant)
    workers = pick_workers(m, k, n, ml, best.variant, threads=threads)
    return (best.shapes, len(best.shapes), best.variant, "direct", threads,
            _model_backend(threads, workers), workers)


def auto_config(
    m: int,
    k: int,
    n: int,
    machine: MachineParams | None = None,
    max_levels: int = 2,
    *,
    dtype="float64",
    threads: int | None = None,
    tune: str = "readonly",
) -> tuple:
    """Configuration for ``multiply(engine="auto")``: wisdom first, model second.

    With ``tune="readonly"`` (the default) the persistent wisdom store
    (:mod:`repro.tune.wisdom`) is consulted for this problem class —
    a hit returns the *measured-best* configuration in a dict probe,
    without enumerating or pricing a single candidate.  On a miss the
    model path runs (:func:`_model_config`) priced with this host's
    machine model unless an explicit ``machine`` was given: the one the
    store recorded, or — on the first miss against a store without one —
    a calibration taken then (about 40 ms, once per store) and recorded
    (:func:`repro.tune.tuner.resolve_machine`).  ``repro tune
    --calibrate`` re-measures.  ``tune="on"`` additionally runs a short
    budgeted tuning pass on a miss and returns (and records) its winner;
    ``tune="off"`` never touches the store: it is the pure cold-model
    path on :func:`~repro.model.machines.generic_laptop` (or ``machine``).

    ``dtype`` and ``threads`` scope the wisdom bucket (``threads=None``
    is the ``auto`` thread class); they do not affect the model path,
    whose thread pick is derived from the scaling model either way.

    Returns the 7-tuple ``(algorithm, levels, variant, engine, threads,
    backend, workers)``.  A wisdom hit whose recorded backend is not
    available in this process (e.g. a ``"numba"`` win replayed where
    numba is not installed) degrades the backend — and only the backend —
    to ``"reference"``.  ``workers`` is the thread-vs-process runtime
    mode (wisdom files recorded before the dimension existed read as
    ``"threads"``, the mode they actually measured).
    """
    from repro.core.spec import normalize_tune

    tune = normalize_tune(tune)
    if tune != "off":
        from repro.tune.wisdom import default_store

        store = default_store()
        hit = store.lookup_tuple(m, k, n, dtype=dtype, threads=threads)
        if hit is not None:
            return (*hit[:5], _usable_backend(hit[5]), hit[6])
        if tune == "on":
            from repro.tune.tuner import tune_problem

            report = tune_problem(
                m, k, n, dtype=dtype, threads=threads,
                max_levels=max_levels, machine=machine, store=store,
            )
            cfg = report.config
            return (*cfg[:5], _usable_backend(cfg[5]), cfg[6])
        if machine is None:
            machine = store.machine_params()
            if machine is None:  # first model-path miss on this store
                from repro.tune.tuner import resolve_machine

                machine = resolve_machine(store)
    return _model_config(m, k, n, machine, max_levels)


def _usable_backend(name: str) -> str:
    """``name`` when that backend is registered *and* available, else
    ``"reference"`` (the backend every configuration can execute on)."""
    from repro import kernels

    try:
        backend = kernels.get_backend(name)
    except ValueError:
        return "reference"
    return name if backend.available() else "reference"


def best_gflops_series(
    sweep: Iterable[tuple[int, int, int]],
    machine: MachineParams,
    **kwargs,
) -> list[tuple[tuple[int, int, int], Candidate, float]]:
    """Convenience for Fig.-8 style curves: winner + simulated GFLOPS per point."""
    out = []
    for (m, k, n) in sweep:
        winner, _ = select(m, k, n, machine, **kwargs)
        t = simulate_time(m, k, n, winner.multilevel(), winner.variant, machine)
        out.append(((m, k, n), winner, effective_gflops(m, k, n, t)))
    return out
