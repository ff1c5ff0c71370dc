"""Rectangular/mixed-schedule benchmark: the right family member per shape.

The paper's headline claim is that the *family* beats any single
algorithm: skewed problems want base cases whose ``<m~,k~,n~>`` aspect
matches theirs.  This bench measures, on tall-skinny x wide problems,
the model-guided ``engine="auto"`` pick (which enumerates rectangular
and mixed schedules via ``hybrid_shapes_for``) against the pure-square
Strassen incumbent (best of 1 and 2 levels) and ``np.matmul``.

Acceptance (pytest mode): on at least one skewed shape auto selects a
non-square or mixed schedule, and that pick is no slower than the
pure-square incumbent.  Standalone mode prints the table and writes
``benchmarks/results/BENCH_rectangular.json``.
"""

from __future__ import annotations

import time

import numpy as np

#: Tall-skinny x wide (outer-product-flavored) shapes: m, n >> k, all
#: divisible by both the square and the <3,2,3>-family partitions.
SKEWED_SHAPES = ((1152, 384, 1152), (1536, 256, 1536), (2304, 256, 2304))

#: The pure-square incumbent schedules auto must not lose to.
SQUARE_INCUMBENTS = (("strassen", 1), ("strassen", 2))

_REPEATS = 5


def _best_time(m, k, n, algorithm, levels=1, repeats=_REPEATS) -> float:
    """Wall-clock of one config via the shared tune harness (GC-pinned).

    One group of ``repeats`` calls, min taken — best-case timing, robust
    to background noise on shared runners.
    """
    from repro.tune.measure import MeasureConfig, measure_candidate

    meas = measure_candidate(
        m, k, n, algorithm, levels=levels, variant="abc", engine="direct",
        config=MeasureConfig(warmup=1, repeats=1, inner=repeats),
    )
    return meas.time_s


def _auto_pick(m, k, n):
    """The model-guided configuration (cold model, no wisdom)."""
    from repro.core.selection import auto_config
    from repro.core.spec import Schedule

    algo, levels = auto_config(m, k, n, tune="off")[:2]
    if algo == "classical":
        return "classical", "classical@1", levels
    sched = Schedule(tuple(tuple(s) for s in algo))
    return algo, sched.signature, levels


def _is_square_only(signature: str) -> bool:
    """True when every schedule atom is a square ``<d,d,d>`` (or classical)."""
    from repro.core.spec import spec_key

    for kind, val in spec_key(signature):
        if kind == "shape" and len(set(val)) == 1:
            continue
        if kind == "name" and val == "classical":
            continue
        return False
    return True


def measure(shapes=SKEWED_SHAPES, repeats=_REPEATS):
    """Per-shape rows: auto pick vs square incumbent vs np.matmul."""
    rows = []
    for (m, k, n) in shapes:
        algo, signature, levels = _auto_pick(m, k, n)
        t_auto = _best_time(m, k, n, algo, levels, repeats)
        t_square, square_label = min(
            (_best_time(m, k, n, a, lv, repeats), f"{a}@{lv}")
            for a, lv in SQUARE_INCUMBENTS
        )
        rng = np.random.default_rng(0)
        A = rng.standard_normal((m, k))
        B = rng.standard_normal((k, n))
        A @ B
        t0 = time.perf_counter()
        A @ B
        t_np = time.perf_counter() - t0
        flops = 2.0 * m * k * n
        rows.append({
            "shape": [m, k, n],
            "auto_schedule": signature,
            "auto_time_s": t_auto,
            "auto_gflops": flops / t_auto / 1e9,
            "square_incumbent": square_label,
            "square_time_s": t_square,
            "square_gflops": flops / t_square / 1e9,
            "matmul_time_s": t_np,
            "speedup_vs_square": t_square / t_auto,
        })
    return rows


# ---------------------------------------------------------------------- #
# pytest mode
# ---------------------------------------------------------------------- #
def test_auto_selects_non_square_schedule_on_a_skewed_shape():
    """Acceptance: the selector leaves the square family for skewed shapes."""
    picks = {shape: _auto_pick(*shape)[1] for shape in SKEWED_SHAPES}
    assert any(not _is_square_only(sig) for sig in picks.values()), picks


def test_auto_pick_is_exact_on_skewed_shapes():
    from repro.core.executor import multiply

    rng = np.random.default_rng(3)
    m, k, n = 288, 96, 288  # small instance of the same skew class
    algo, signature, levels = _auto_pick(*SKEWED_SHAPES[0])
    A = rng.standard_normal((m, k))
    B = rng.standard_normal((k, n))
    C = multiply(A, B, algorithm=algo, levels=levels)
    assert np.allclose(C, A @ B, atol=1e-8), signature


def test_rectangular_pick_no_slower_than_square_incumbent():
    """Acceptance: auto's (rectangular/mixed) pick does not lose to square."""
    wins = []
    for shape in SKEWED_SHAPES:
        algo, signature, levels = _auto_pick(*shape)
        if _is_square_only(signature):
            continue
        m, k, n = shape
        t_auto = _best_time(m, k, n, algo, levels)
        t_square = min(_best_time(m, k, n, a, lv)
                       for a, lv in SQUARE_INCUMBENTS)
        wins.append((shape, signature, t_auto, t_square))
    assert wins, "auto picked square schedules on every skewed shape"
    # No-slower with a wall-clock noise margin on at least one shape, and
    # never catastrophically slower anywhere.
    assert any(t_auto <= t_square * 1.05 for _, _, t_auto, t_square in wins), wins
    assert all(t_auto <= t_square * 1.5 for _, _, t_auto, t_square in wins), wins


# ---------------------------------------------------------------------- #
# standalone mode
# ---------------------------------------------------------------------- #
def main() -> None:
    from repro.bench.reporting import write_bench_json

    print(f"rectangular-schedule benchmark (min of {_REPEATS}):")
    print(f"{'shape':>16} {'auto schedule':>22} {'auto ms':>9} "
          f"{'square ms':>10} {'matmul ms':>10} {'vs square':>9}")
    rows = measure()
    for r in rows:
        m, k, n = r["shape"]
        print(f"{m:>5}x{k:>4}x{n:>5} {r['auto_schedule']:>22} "
              f"{r['auto_time_s'] * 1e3:9.1f} {r['square_time_s'] * 1e3:10.1f} "
              f"{r['matmul_time_s'] * 1e3:10.1f} "
              f"{r['speedup_vs_square']:8.2f}x")
    out = write_bench_json("rectangular", {"points": rows})
    print(f"[saved {out}]")


if __name__ == "__main__":
    main()
