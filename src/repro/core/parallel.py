"""Parallel execution analysis: the paper's §5.1/§5.3 multicore story.

Two sides of the same figures:

* **Modeled** — :func:`scaling_curve` / :func:`parallel_efficiency` price
  the generated implementations with the machine model (arithmetic divides
  by cores, DRAM bandwidth saturates at the socket), reproducing the
  flattened curves of Figs. 9–10 without touching hardware.
* **Measured** — :func:`measured_scaling_curve` runs the real runtime
  (:mod:`repro.core.runtime`) with BLAS limited to each core count and
  reports wall-clock speedup on *this* machine, so modeled and measured
  scaling plot side by side (``benchmarks/bench_fig10_multicore.py``).
  Like the paper's, that parallelism is data parallelism inside each
  leaf GEMM, not task parallelism across products.
"""

from __future__ import annotations

import json
import os
import sys
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


#: Timed in each child interpreter of :func:`measured_scaling_curve`:
#: one warm-up call (plan compile, arena growth), then the best of
#: ``repeats`` calls, printed as JSON.
_TIMING_CHILD = """
import json, sys, time
import numpy as np
from repro.core.executor import multiply
cfg = json.loads(sys.argv[1])
m, k, n = cfg["shape"]
rng = np.random.default_rng(cfg["seed"])
A = rng.standard_normal((m, k)).astype(cfg["dtype"], copy=False)
B = rng.standard_normal((k, n)).astype(cfg["dtype"], copy=False)
C = np.zeros((m, n), dtype=cfg["dtype"])
kw = dict(algorithm=cfg["algorithm"], levels=cfg["levels"],
          variant=cfg["variant"], engine=cfg["engine"])
multiply(A, B, C, **kw)
best = float("inf")
for _ in range(cfg["repeats"]):
    t0 = time.perf_counter()
    multiply(A, B, C, **kw)
    best = min(best, time.perf_counter() - t0)
print(json.dumps(best))
"""


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
    """Measured strong scaling of BLAS data parallelism on this machine.

    For each core count ``p`` in ``threads_list`` the multiply runs in a
    child interpreter with ``OPENBLAS_NUM_THREADS`` and
    ``OMP_NUM_THREADS`` set to ``p`` (BLAS reads them once, at load),
    timed best-of-``repeats`` after one warm-up call.  Counts above
    ``os.cpu_count()`` are skipped: oversubscribing the cores measures
    the scheduler, not the library.  The first remaining entry —
    conventionally 1 — is the speedup baseline.  Unlike
    :func:`scaling_curve` nothing here is modeled: this is the real
    runtime on real cores, where every leaf product is one BLAS call
    using ``p`` threads.  String ``algorithm`` specs only (the spec
    crosses a process boundary as JSON).
    """
    import subprocess  # here, not at module level: `import repro` stays lean

    from repro.core.spec import normalize_threads

    cpus = os.cpu_count() or 1
    counts = [p for p in (normalize_threads(t) for t in threads_list)
              if p <= cpus]
    src = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    cfg = json.dumps({
        "shape": [int(m), int(k), int(n)], "algorithm": algorithm,
        "levels": int(levels), "variant": variant, "engine": engine,
        "repeats": max(int(repeats), 1), "dtype": np.dtype(dtype).name,
        "seed": int(seed),
    })
    out: list[ScalingPoint] = []
    base = None
    for p in counts:
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(p),
                   OMP_NUM_THREADS=str(p))
        env["PYTHONPATH"] = os.pathsep.join(
            x for x in (src, env.get("PYTHONPATH")) if x)
        proc = subprocess.run(
            [sys.executable, "-c", _TIMING_CHILD, cfg], env=env,
            capture_output=True, text=True,
        )
        if proc.returncode:
            raise RuntimeError(
                f"timing child at {p} core(s) failed:\n{proc.stderr}")
        best = float(json.loads(proc.stdout.strip().splitlines()[-1]))
        if base is None:
            base = best
        out.append(
            ScalingPoint(
                cores=p,
                time=best,
                gflops=effective_gflops(m, k, n, best),
                speedup=base / best,
                efficiency=base / best / p,
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
