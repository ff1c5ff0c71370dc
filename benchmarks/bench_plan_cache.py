"""Plan-cache benchmark: repeated small multiplies amortize compilation.

The compiled-plan refactor makes every multiply flow through
:func:`repro.core.compile.compile`; this benchmark quantifies what the LRU
cache buys on the serve-many-small-multiplies workload the ROADMAP targets:
repeated 96x96 Strassen multiplies with the plan cached vs. recompiled
every call (cache cleared between calls).

Run standalone (``python benchmarks/bench_plan_cache.py``) for a summary
table, or through pytest for the regression-tracked assertion that the
cached path is at least 2x the uncached throughput.
"""

from __future__ import annotations

import time

import numpy as np

N = 96
ITERS = 200
REPEATS = 3


def _operands(n=N):
    rng = np.random.default_rng(2017)
    return rng.standard_normal((n, n)), rng.standard_normal((n, n))


def _time_multiply(A, B, levels: int, uncached: bool, iters: int = ITERS) -> float:
    """Best-of-REPEATS mean seconds per multiply call."""
    from repro.core import compile as plancache
    from repro.core.executor import multiply

    best = float("inf")
    for _ in range(REPEATS):
        plancache.plan_cache_clear()
        multiply(A, B, algorithm="strassen", levels=levels)  # warm-up/compile
        t0 = time.perf_counter()
        for _ in range(iters):
            if uncached:
                plancache.plan_cache_clear()
            multiply(A, B, algorithm="strassen", levels=levels)
        best = min(best, (time.perf_counter() - t0) / iters)
    return best


def measure(levels: int = 2):
    """Return ``(cached_s, uncached_s, ratio)`` for one configuration."""
    A, B = _operands()
    cached = _time_multiply(A, B, levels, uncached=False)
    uncached = _time_multiply(A, B, levels, uncached=True)
    return cached, uncached, uncached / cached


def test_plan_cache_speedup():
    """Acceptance: cached repeated 96x96 Strassen multiplies >= 2x uncached."""
    cached, uncached, ratio = measure(levels=2)
    print(
        f"\n96x96 strassen L2: cached {cached * 1e6:.0f} us/call, "
        f"uncached {uncached * 1e6:.0f} us/call -> {ratio:.2f}x"
    )
    assert ratio >= 2.0, (
        f"plan cache speedup {ratio:.2f}x below the 2x bar "
        f"(cached {cached:.2e}s, uncached {uncached:.2e}s)"
    )


def test_cache_hits_accumulate():
    """The repeated-multiply loop is served from the cache, not recompiled."""
    from repro.core import compile as plancache
    from repro.core.executor import multiply

    A, B = _operands()
    plancache.plan_cache_clear()
    for _ in range(10):
        multiply(A, B, algorithm="strassen", levels=2)
    info = plancache.plan_cache_info()
    assert info.misses == 1
    assert info.hits == 9


def main() -> None:
    from repro.bench.reporting import write_bench_json

    print(f"plan-cache benchmark: repeated {N}x{N} Strassen multiplies")
    print(f"{'config':<14} {'cached us':>10} {'uncached us':>12} {'speedup':>8}")
    rows = []
    for levels in (1, 2):
        cached, uncached, ratio = measure(levels)
        print(
            f"strassen L{levels:<4} {cached * 1e6:10.1f} "
            f"{uncached * 1e6:12.1f} {ratio:7.2f}x"
        )
        rows.append({
            "shape": [N, N, N],
            "algorithm": f"strassen-L{levels}",
            "cached_us": cached * 1e6,
            "uncached_us": uncached * 1e6,
            "speedup": ratio,
        })
    # Batched amortization: one compiled plan + chunked vectorized passes
    # for the whole stack vs. one multiply() call per element.
    from repro.core.executor import multiply, multiply_batched

    rng = np.random.default_rng(7)
    print(f"\n{'batched config':<22} {'us/elem':>10} {'looped us':>10} {'speedup':>8}")
    for batch, size, levels in ((32, N, 2), (256, 32, 1)):
        A = rng.standard_normal((batch, size, size))
        B = rng.standard_normal((batch, size, size))
        multiply_batched(A, B, algorithm="strassen", levels=levels)  # warm
        t0 = time.perf_counter()
        multiply_batched(A, B, algorithm="strassen", levels=levels)
        t_batched = time.perf_counter() - t0
        t0 = time.perf_counter()
        for i in range(batch):
            multiply(A[i], B[i], algorithm="strassen", levels=levels)
        t_looped = time.perf_counter() - t0
        label = f"{size}x{size} L{levels} x{batch}"
        print(
            f"{label:<22} {t_batched / batch * 1e6:10.1f} "
            f"{t_looped / batch * 1e6:10.1f} {t_looped / t_batched:7.2f}x"
        )
        rows.append({
            "shape": [size, size, size],
            "algorithm": f"strassen-L{levels}",
            "batch": batch,
            "batched_us_per_elem": t_batched / batch * 1e6,
            "looped_us_per_elem": t_looped / batch * 1e6,
            "speedup": t_looped / t_batched,
        })
    out = write_bench_json("plan_cache", {"points": rows})
    print(f"[saved {out}]")


if __name__ == "__main__":
    main()
