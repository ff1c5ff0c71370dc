"""Parallel execution analysis: the paper's §5.1/§5.3 multicore story.

Two sides of the same figures:

* **Modeled** — :func:`scaling_curve` / :func:`parallel_efficiency` price
  the generated implementations with the machine model (arithmetic divides
  by cores, DRAM bandwidth saturates at the socket), reproducing the
  flattened curves of Figs. 9–10 without touching hardware.
* **Measured** — :func:`measured_scaling_curve` drives the real task-graph
  runtime (:mod:`repro.core.runtime`) at each thread count and reports
  wall-clock speedup on *this* machine, so modeled and measured scaling
  can finally be plotted side by side
  (``benchmarks/bench_parallel_runtime.py`` /
  ``benchmarks/bench_fig10_multicore.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.blis.simulator import simulate_time
from repro.core.kronecker import MultiLevelFMM
from repro.model.machines import MachineParams, ivy_bridge_e5_2680_v2
from repro.model.perfmodel import effective_gflops

__all__ = [
    "ScalingPoint",
    "scaling_curve",
    "measured_scaling_curve",
    "parallel_efficiency",
    "bandwidth_bound_fraction",
]


@dataclass(frozen=True)
class ScalingPoint:
    cores: int
    time: float
    gflops: float
    speedup: float
    efficiency: float


def scaling_curve(
    m: int,
    k: int,
    n: int,
    ml: MultiLevelFMM | None,
    variant: str = "abc",
    max_cores: int = 10,
    machine_factory=ivy_bridge_e5_2680_v2,
) -> list[ScalingPoint]:
    """Modeled strong-scaling curve for one problem and implementation.

    ``machine_factory(cores)`` must return a :class:`MachineParams`; the
    default is the paper's testbed, whose bandwidth stops scaling at about
    five cores — the contention that flattens Figs. 9–10.
    """
    base = simulate_time(m, k, n, ml, variant, machine_factory(1))
    out = []
    for c in range(1, max_cores + 1):
        t = simulate_time(m, k, n, ml, variant, machine_factory(c))
        out.append(
            ScalingPoint(
                cores=c,
                time=t,
                gflops=effective_gflops(m, k, n, t),
                speedup=base / t,
                efficiency=base / t / c,
            )
        )
    return out


def measured_scaling_curve(
    m: int,
    k: int,
    n: int,
    algorithm="strassen",
    levels: int = 1,
    variant: str = "abc",
    threads_list=(1, 2, 4),
    engine: str = "direct",
    repeats: int = 3,
    dtype=np.float64,
    seed: int = 0,
) -> list[ScalingPoint]:
    """Measured strong-scaling of the task-graph runtime on this machine.

    Runs ``multiply(..., threads=t)`` for each ``t`` in ``threads_list``
    (best-of-``repeats`` wall-clock; the first entry — conventionally 1 —
    is the speedup baseline).  Unlike :func:`scaling_curve` nothing here is
    modeled: this is the real runtime on real cores, including one warm-up
    call per thread count so plan compilation and arena allocation stay
    out of the timings.
    """
    from repro.core.executor import multiply

    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, k)).astype(dtype, copy=False)
    B = rng.standard_normal((k, n)).astype(dtype, copy=False)
    C = np.zeros((m, n), dtype=dtype)
    out: list[ScalingPoint] = []
    base = None
    for t in threads_list:
        multiply(A, B, C, algorithm=algorithm, levels=levels,
                 variant=variant, engine=engine, threads=t)  # warm-up
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            multiply(A, B, C, algorithm=algorithm, levels=levels,
                     variant=variant, engine=engine, threads=t)
            best = min(best, time.perf_counter() - t0)
        if base is None:
            base = best
        out.append(
            ScalingPoint(
                cores=int(t),
                time=best,
                gflops=effective_gflops(m, k, n, best),
                speedup=base / best,
                efficiency=base / best / int(t),
            )
        )
    return out


def parallel_efficiency(
    m: int, k: int, n: int,
    ml: MultiLevelFMM | None,
    variant: str,
    cores: int,
    machine_factory=ivy_bridge_e5_2680_v2,
) -> float:
    """Speedup at ``cores`` divided by ``cores`` (modeled)."""
    pts = scaling_curve(m, k, n, ml, variant, cores, machine_factory)
    return pts[-1].efficiency


def bandwidth_bound_fraction(
    m: int, k: int, n: int,
    ml: MultiLevelFMM | None,
    variant: str,
    machine: MachineParams,
) -> float:
    """Fraction of modeled time spent waiting on DRAM (0 = compute bound).

    The paper's rank-k panels at 10 cores sit near 1.0; large square GEMM
    near 0.  Useful for predicting when adding cores stops helping.
    """
    from repro.blis.simulator import counters_to_time, simulate_fmm, simulate_gemm

    if ml is None:
        c = simulate_gemm(m, k, n, machine.blocking)
    else:
        c = simulate_fmm(m, k, n, ml, variant, machine.blocking)
    total = counters_to_time(c, machine)
    mem = c.dram_elements(machine.lam) * machine.tau_b
    return mem / total if total > 0 else 0.0
