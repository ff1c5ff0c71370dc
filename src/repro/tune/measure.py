"""Robust wall-clock measurement of compiled plans through the real runtime.

The paper measures its top-2 model picks because fringe effects are
invisible to the model (§4.4); this module is the measuring instrument.
One measurement runs a real :class:`~repro.core.compile.CompiledPlan`
through the lowering runtime (or the blocked substrate) exactly the way
``multiply`` would, with the standard noise-suppression tricks:

* **warmup** calls first, so plan compilation and arena growth stay out
  of the timings;
* **GC pinning** — the collector is disabled around the timed region
  (and restored after), so a mid-measurement collection cannot poison a
  sample;
* **median-of-min** — samples are grouped into ``repeats`` groups of
  ``inner`` calls; the minimum of each group discards per-group noise,
  the median across groups discards unlucky groups;
* an optional **time budget** that stops sampling early (budgeted tuning
  sweeps stay budgeted) while always keeping at least one sample.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import compile as plancache
from repro.core.compile import CompiledPlan
from repro.model.perfmodel import effective_gflops

__all__ = [
    "MeasureConfig",
    "Measurement",
    "measure_plan",
    "measure_candidate",
]


@dataclass(frozen=True)
class MeasureConfig:
    """Knobs of the timing harness (defaults suit sub-ms..ms kernels)."""

    warmup: int = 1          #: untimed calls before sampling
    repeats: int = 3         #: groups (median taken across groups)
    inner: int = 3           #: calls per group (min taken within a group)
    budget_s: float | None = None  #: soft wall-clock cap on the whole run
    pin_gc: bool = True      #: disable the GC around the timed region

    def __post_init__(self) -> None:
        if self.warmup < 0 or self.repeats < 1 or self.inner < 1:
            raise ValueError("warmup must be >= 0; repeats/inner >= 1")
        if self.budget_s is not None and self.budget_s <= 0:
            raise ValueError("budget_s must be positive when given")


@dataclass(frozen=True)
class Measurement:
    """One configuration's measured verdict."""

    shape: tuple[int, int, int]
    label: str
    engine: str
    dtype: str
    time_s: float            #: median of per-group minima — the verdict
    best_s: float            #: global minimum sample
    samples: int             #: timed calls actually taken
    group_minima: tuple[float, ...] = field(repr=False, default=())

    @property
    def gflops(self) -> float:
        """Effective GFLOPS (classical-flops convention, Fig. 5)."""
        m, k, n = self.shape
        return effective_gflops(m, k, n, self.time_s)


def _runner(cplan: CompiledPlan, engine: str, params, mode):
    """Build the ``fn(A, B, C)`` the harness times, matching ``multiply``."""
    from repro.core.executor import BlockedEngine, DirectEngine

    if engine == "direct":
        eng = DirectEngine()
    elif engine == "blocked":
        eng = BlockedEngine(params=params, variant=cplan.variant, mode=mode)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    return lambda A, B, C: eng.execute(cplan, A, B, C)


def measure_plan(
    cplan: CompiledPlan,
    *,
    engine: str = "direct",
    config: MeasureConfig | None = None,
    params=None,
    mode: str = "slab",
    seed: int = 0,
) -> Measurement:
    """Time one compiled plan on this machine.

    Operands are seeded-random and allocated once outside the timed
    region; the destination accumulates across calls (``C += A @ B`` is
    the engines' contract), which is harmless for timing and avoids
    paying a re-zero inside the samples.
    """
    cfg = config or MeasureConfig()
    m, k, n = cplan.shape
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, k)).astype(cplan.dtype, copy=False)
    B = rng.standard_normal((k, n)).astype(cplan.dtype, copy=False)
    C = np.zeros((m, n), dtype=cplan.dtype)
    fn = _runner(cplan, engine, params, mode)

    deadline = None if cfg.budget_s is None else time.perf_counter() + cfg.budget_s
    for _ in range(cfg.warmup):
        fn(A, B, C)
        if deadline is not None and time.perf_counter() >= deadline:
            break

    group_minima: list[float] = []
    samples = 0
    gc_was_enabled = gc.isenabled()
    if cfg.pin_gc and gc_was_enabled:
        gc.collect()
        gc.disable()
    try:
        for _ in range(cfg.repeats):
            best = float("inf")
            for _ in range(cfg.inner):
                t0 = time.perf_counter()
                fn(A, B, C)
                best = min(best, time.perf_counter() - t0)
                samples += 1
                if deadline is not None and time.perf_counter() >= deadline:
                    break
            group_minima.append(best)
            if deadline is not None and time.perf_counter() >= deadline:
                break
    finally:
        if cfg.pin_gc and gc_was_enabled:
            gc.enable()

    label = f"{cplan.ml.name}/{cplan.variant}"
    return Measurement(
        shape=(m, k, n),
        label=label,
        engine=engine,
        dtype=cplan.dtype.name,
        time_s=statistics.median(group_minima),
        best_s=min(group_minima),
        samples=samples,
        group_minima=tuple(group_minima),
    )


def measure_candidate(
    m: int,
    k: int,
    n: int,
    algorithm,
    *,
    levels: int = 1,
    variant: str = "abc",
    dtype=np.float64,
    engine: str = "direct",
    config: MeasureConfig | None = None,
    seed: int = 0,
    fusion: str = "auto",
) -> Measurement:
    """Compile (or fetch from the plan cache) and time one configuration.

    ``algorithm`` accepts every spec form :func:`repro.core.spec.normalize_spec`
    does — ``"classical"`` measures the plain-matmul baseline plan.
    ``fusion`` pins the runtime lowering mode; the default ``"auto"``
    resolves from the variant exactly like dispatch will, so tuned
    verdicts measure what ``multiply`` will actually run (the §4.1
    variants are the staged/fused lowering families — tuning across
    variants is how the wisdom store picks fused vs staged).
    """
    cplan = plancache.compile((int(m), int(k), int(n)), algorithm, levels,
                              variant, dtype=dtype, fusion=fusion)
    return measure_plan(cplan, engine=engine, config=config, seed=seed)
