"""Fusion-runtime benchmark: staged vs streaming-fused pipelines.

The tentpole acceptance bench for the variant-aware runtime
(:mod:`repro.core.runtime`): the same compiled plans are executed through
the **staged** lowering (all R products' ``S``/``T``/``M`` slabs plus the
scatter staging materialized — the reference-framework memory behavior)
and the **fused** lowering (group-streamed product buffers, immediate C
scatter), across square, skewed and batched shapes.  Two claims are
regression-tracked:

* **memory** — the fused pipeline's measured peak workspace bytes (from
  the arena high-water meter on the execution report) are strictly below
  the staged pipeline's on the 2-level 1024^3 problem and on at least two
  shapes overall (deterministic: byte counts, not wall-clock);
* **speed** — summed across the sweep, fused is no slower than staged
  (within a 10% noise margin for shared machines; typical measured ratio
  is ~1.0x with ~3.5x less workspace).

Run standalone (``python benchmarks/bench_fusion_runtime.py``) for a
table plus machine-readable ``benchmarks/results/
BENCH_fusion_runtime.json`` telemetry, or through pytest for the
regression-tracked assertions.
"""

from __future__ import annotations

import os
import time

import numpy as np

#: (shape, algorithm spec, levels, batch) sweep points.  Sizes are chosen
#: so the staged slabs genuinely outgrow the caches (the regime the fused
#: pipeline exists for); the 1536^3 point is past the staged pipeline's
#: ``vector_cap`` — there staged legally falls back to its serial
#: per-step loop while fused stays on the arena path; the batched point
#: exercises the chunked 3-D path.
SHAPES = (
    ((1024, 1024, 1024), "strassen", 2, None),
    ((1536, 1536, 1536), "strassen", 2, None),
    ((1536, 512, 1536), "<3,2,3>@1,strassen@1", 1, None),
    ((128, 128, 128), "strassen", 1, 64),
)
REPEATS = 3
#: Wall-clock tolerance for the "no slower overall" acceptance: shared
#: machines are noisy and the two pipelines are designed to be at parity.
SPEED_MARGIN = 1.10


def _operands(shape, batch, dtype=np.float64, seed=2017):
    m, k, n = shape
    rng = np.random.default_rng(seed)
    lead = (batch,) if batch else ()
    A = rng.standard_normal(lead + (m, k)).astype(dtype, copy=False)
    B = rng.standard_normal(lead + (k, n)).astype(dtype, copy=False)
    C = np.zeros(lead + (m, n), dtype=dtype)
    return A, B, C


def measure_point(shape, spec, levels, batch, repeats=REPEATS):
    """Interleaved best-of-``repeats`` timings + peak bytes for both modes.

    Staged and fused runs alternate so slow drift on a shared machine
    hits both pipelines equally.
    """
    from repro.core import compile as plancache
    from repro.core import runtime

    A, B, C = _operands(shape, batch)
    plans = {
        mode: plancache.compile(shape, spec, levels=levels, fusion=mode)
        for mode in ("staged", "fused")
    }
    peaks: dict[str, int] = {}
    paths: dict[str, str] = {}
    for mode, cplan in plans.items():  # warm: compile, arena
        runtime.execute_plan(cplan, A, B, C)
        report = runtime.last_report()
        peaks[mode] = report.peak_workspace_bytes
        paths[mode] = report.core_path
    times: dict[str, float] = {mode: float("inf") for mode in plans}
    for _ in range(repeats):
        for mode, cplan in plans.items():
            t0 = time.perf_counter()
            runtime.execute_plan(cplan, A, B, C)
            times[mode] = min(times[mode], time.perf_counter() - t0)
    return times, peaks, paths


def run_sweep():
    """Measure every shape point; returns a list of row dicts."""
    rows = []
    for shape, spec, levels, batch in SHAPES:
        times, peaks, paths = measure_point(shape, spec, levels, batch)
        rows.append({
            "shape": list(shape),
            "algorithm": f"{spec}-L{levels}",
            "batch": batch or 1,
            "staged_ms": times["staged"] * 1e3,
            "fused_ms": times["fused"] * 1e3,
            "staged_peak_bytes": peaks["staged"],
            "fused_peak_bytes": peaks["fused"],
            "staged_core_path": paths["staged"],
            "fused_core_path": paths["fused"],
            "speed_ratio": times["staged"] / times["fused"],
        })
    return rows


# ---------------------------------------------------------------------- #
# pytest mode
# ---------------------------------------------------------------------- #
def test_fused_peak_below_staged_at_1024_cubed_two_level():
    """Acceptance: fused ABC peak workspace < staged on 2-level 1024^3.

    Deterministic (byte counts from the arena high-water meter, no
    wall-clock), and checked against the performance model's workspace
    twin so model and runtime agree on the memory win.
    """
    from repro.core.spec import resolve_levels
    from repro.model.perfmodel import predict_workspace_bytes

    times, peaks, _ = measure_point((1024, 1024, 1024), "strassen", 2, None,
                                    repeats=1)
    assert peaks["fused"] < peaks["staged"], peaks
    ml = resolve_levels("strassen", 2)
    for mode in ("staged", "fused"):
        predicted = predict_workspace_bytes(1024, 1024, 1024, ml, mode)
        assert peaks[mode] == predicted, (mode, peaks[mode], predicted)
    # The headline: >3x less live workspace for the same multiply.
    assert peaks["staged"] > 3 * peaks["fused"]


def test_fused_no_slower_overall_and_lower_peak_on_two_shapes():
    """Acceptance: summed over the sweep, fused is no slower than staged
    (10% noise margin), and its peak workspace is strictly lower on at
    least two shapes."""
    rows = run_sweep()
    total_staged = sum(r["staged_ms"] for r in rows)
    total_fused = sum(r["fused_ms"] for r in rows)
    assert total_fused <= total_staged * SPEED_MARGIN, (
        f"fused {total_fused:.1f}ms vs staged {total_staged:.1f}ms "
        f"(> {SPEED_MARGIN:.0%} margin)"
    )
    lower = [r for r in rows if r["fused_peak_bytes"] < r["staged_peak_bytes"]]
    assert len(lower) >= 2, [
        (r["shape"], r["staged_peak_bytes"], r["fused_peak_bytes"])
        for r in rows
    ]


def test_fused_exact_across_sweep_shapes():
    """Both lowerings produce the numpy-exact product on every sweep shape."""
    from repro.core import compile as plancache
    from repro.core import runtime

    for shape, spec, levels, batch in SHAPES:
        small = tuple(max(d // 8, 4) for d in shape)  # scaled-down twin
        A, B, C = _operands(small, batch and max(batch // 8, 2))
        ref = A @ B
        for mode in ("staged", "fused"):
            cplan = plancache.compile(small, spec, levels=levels, fusion=mode)
            C[...] = 0.0
            runtime.execute_plan(cplan, A, B, C)
            assert np.abs(C - ref).max() < 1e-8, (small, mode)


# ---------------------------------------------------------------------- #
# standalone mode
# ---------------------------------------------------------------------- #
def main() -> None:
    from repro.bench.reporting import write_bench_json

    print(f"fusion-runtime benchmark (host has {os.cpu_count()} cores)")
    print(f"{'shape':>18} {'algorithm':>22} "
          f"{'staged ms':>10} {'fused ms':>9} {'ratio':>6} "
          f"{'staged MiB':>11} {'fused MiB':>10}")
    rows = run_sweep()
    for r in rows:
        shape = "x".join(str(d) for d in r["shape"])
        if r["batch"] > 1:
            shape += f"(x{r['batch']})"
        print(f"{shape:>18} {r['algorithm']:>22} "
              f"{r['staged_ms']:10.1f} {r['fused_ms']:9.1f} "
              f"{r['speed_ratio']:5.2f}x "
              f"{r['staged_peak_bytes'] / 2**20:11.1f} "
              f"{r['fused_peak_bytes'] / 2**20:10.1f}")
    total_staged = sum(r["staged_ms"] for r in rows)
    total_fused = sum(r["fused_ms"] for r in rows)
    print(f"\ntotal: staged {total_staged:.1f}ms, fused {total_fused:.1f}ms "
          f"({total_staged / total_fused:.2f}x); fused peak workspace is "
          f"lower on "
          f"{sum(r['fused_peak_bytes'] < r['staged_peak_bytes'] for r in rows)}"
          f"/{len(rows)} points")
    out = write_bench_json("fusion_runtime", {
        "points": rows,
        "total_staged_ms": total_staged,
        "total_fused_ms": total_fused,
    })
    print(f"[saved {out}]")


if __name__ == "__main__":
    main()
