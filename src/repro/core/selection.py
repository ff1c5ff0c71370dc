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

from repro.algorithms.catalog import FIG2_SHAPES, get_algorithm, shape_stats
from repro.blis.simulator import simulate_time
from repro.core.kronecker import MultiLevelFMM, StackStats
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
        """Canonical schedule string, e.g. ``"<2,2,2>@2"`` (plan-key form)."""
        return self.schedule.signature

    @property
    def fusion(self) -> str:
        """Runtime lowering mode this candidate will compile to.

        The §4.1 variants *are* the lowering modes of the streaming
        runtime: ``naive`` executes staged (every temporary
        materialized), ``ab``/``abc`` execute the fused streaming
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
        stats = _stack_stats(stack)
        Mt, Kt, Nt = stats.dims_total
        if m < Mt or k < Kt or n < Nt:
            continue  # partition coarser than the problem
        for var in variants:
            pred = predict_fmm(m, k, n, stats, var, machine)
            out.append(Candidate(shapes=stack, variant=var, prediction=pred))
    return out


@lru_cache(maxsize=4096)
def _stack_stats(stack: tuple[tuple[int, int, int], ...]) -> StackStats:
    """What the model prices of one per-level shape stack, computed once
    per process and without forming the stack's coefficients: each
    catalog shape's stats come from its base case
    (:func:`repro.algorithms.catalog.shape_stats`) and compose level by
    level (:meth:`StackStats.compose`), exactly as the compiled
    :class:`MultiLevelFMM` would report them."""
    return StackStats.compose([shape_stats(*s) for s in stack])


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


#: The classical ``<1,1,1>`` schedule on the direct engine.
_CLASSICAL = ("classical", 1, "abc", "direct")


@lru_cache(maxsize=1024)
def _model_config(
    m: int,
    k: int,
    n: int,
    machine: MachineParams | None = None,
    max_levels: int = 2,
) -> tuple:
    """Pure model-guided schedule (the cold path of :func:`auto_config`).

    Ranks the generated family with the §4.4 performance model and returns
    ``(algorithm, levels, variant, engine)`` ready for the plan compiler:
    the winning per-level shape stack and variant when the model predicts
    FMM beats the GEMM baseline, else the classical ``<1,1,1>`` plan.  The
    execution engine is the direct lowering runtime — the
    wall-clock-fast path of this substrate; callers wanting the
    instrumented blocked substrate ask for it explicitly.

    Decisions are memoized per ``(m, k, n, machine, max_levels)``, so the
    enumeration cost is paid once per problem shape *per process*.
    """
    from repro.model.machines import generic_laptop

    machine = machine or generic_laptop()
    candidates = enumerate_candidates(m, k, n, machine, max_levels=max_levels)
    best = rank_candidates(candidates)[0] if candidates else None
    if best is None or best.prediction.time >= predict_gemm(m, k, n, machine).time:
        return _CLASSICAL
    return (best.shapes, len(best.shapes), best.variant, "direct")


def auto_config(
    m: int,
    k: int,
    n: int,
    machine: MachineParams | None = None,
    max_levels: int = 2,
    *,
    dtype="float64",
    tune: str = "readonly",
) -> tuple:
    """Configuration for ``multiply(engine="auto")``: the §4.4 model's pick.

    Ranks the generated family with the performance model
    (:func:`_model_config`).  With ``tune="readonly"`` (the default) and
    no explicit ``machine`` the model prices with this host's machine
    model: the one the wisdom store (:mod:`repro.tune.wisdom`) recorded,
    or — on the first call against a store without one — a calibration
    taken then (about 40 ms, once per store) and recorded
    (:func:`repro.tune.tuner.resolve_machine`).  ``repro tune
    --calibrate`` re-measures.  ``tune="off"`` never touches the store:
    it is the pure cold-model path on
    :func:`~repro.model.machines.generic_laptop` (or ``machine``).  An
    empty problem (any dimension 0) is the classical config and never
    touches the store either.

    ``dtype`` is accepted for the callers' signature; the model prices
    every dtype alike.

    Returns the 7-tuple ``(algorithm, levels, variant, engine, threads,
    backend, workers)``.  Auto picks no thread count, leaf backend or
    worker mode: ``threads`` is 1 (BLAS threads every leaf product),
    ``backend`` is ``"reference"`` and ``workers`` is ``"threads"``.
    Those three keep the tuple's shape for the perf ledger, which
    indexes it.
    """
    from repro.core.spec import normalize_tune

    tune = normalize_tune(tune)
    if min(m, k, n) < 1:
        schedule = _CLASSICAL
    else:
        if machine is None and tune == "readonly":
            from repro.tune.wisdom import default_store

            store = default_store()
            machine = store.machine_params()
            if machine is None:  # first model-path call on this store
                from repro.tune.tuner import resolve_machine

                machine = resolve_machine(store)
        schedule = _model_config(m, k, n, machine, max_levels)
    return (*schedule, 1, "reference", "threads")


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
