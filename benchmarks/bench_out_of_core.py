"""Out-of-core benchmark: the tiled streaming lowering vs in-core pipelines.

The acceptance bench for ``fusion="tiled"`` (:mod:`repro.core.runtime` +
:mod:`repro.core.tiles`): the same compiled plans run through the
**staged**, **fused** and **tiled** lowerings, the last under a memory
budget of ``1/BUDGET_DIV`` of its operand slabs — so the slab-scale
temporaries genuinely spill to mmap files and only the strip window
stays in RAM.  Three claims are regression-tracked:

* **memory** — the tiled execution's measured peak RAM workspace (arena
  high-water meter; mmap-spilled bytes deliberately do not count) is
  strictly below the staged pipeline's on at least two shapes, and never
  exceeds the priced window (``predict_tile_window_bytes`` — asserted
  equal to the report's ``tile_window_bytes``).  Deterministic byte
  counts, no wall-clock.
* **speed** — summed across the sweep, tiled wall-clock stays within
  ``SPEED_MARGIN`` (1.3x) of the in-core fused pipeline at these in-RAM
  sizes: streaming through the window must not wreck the kernel
  efficiency the fused pipeline was built for.
* **out-of-core completion** — a 2-level multiply on ``np.memmap``
  operands whose slabs are 4x the configured budget completes through
  the tiled lowering, bitwise-equal to the in-core fused result, with
  measured peak RAM <= the priced window.

Run standalone (``python benchmarks/bench_out_of_core.py``) for a table
plus machine-readable ``benchmarks/results/BENCH_out_of_core.json``
telemetry, or through pytest for the regression-tracked assertions
(CI runs the deterministic peak/acceptance bars under a capped
``REPRO_MEM_BUDGET``; the wall-clock bar is for quiet machines).
"""

from __future__ import annotations

import os
import time

import numpy as np

#: (shape, algorithm spec, levels) sweep points.  Sizes are in-RAM on any
#: CI runner (the wall-clock bar compares pipelines, not disks) but big
#: enough that the staged slabs dwarf the tiled strip window.
SHAPES = (
    ((384, 384, 384), "strassen", 2),
    ((512, 512, 512), "strassen", 2),
    ((576, 192, 576), "<3,2,3>@1,strassen@1", 1),
)
REPEATS = 3
#: Tiled runs under a budget of ``operand_slab_bytes / BUDGET_DIV`` —
#: well past the auto-tiling trigger (slabs > budget), so the strip
#: height genuinely solves from the budget.
BUDGET_DIV = 8
#: Wall-clock tolerance vs the in-core fused pipeline at in-RAM sizes.
SPEED_MARGIN = 1.30


def _operands(shape, dtype=np.float64, seed=2017):
    m, k, n = shape
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, k)).astype(dtype, copy=False)
    B = rng.standard_normal((k, n)).astype(dtype, copy=False)
    C = np.zeros((m, n), dtype=dtype)
    return A, B, C


def _budget_for(shape, spec, levels) -> int:
    from repro.core.spec import operand_slab_bytes
    from repro.core.executor import resolve_levels

    m, k, n = shape
    ml = resolve_levels(spec, levels)
    return operand_slab_bytes(m, k, n, ml) // BUDGET_DIV


def measure_point(shape, spec, levels, repeats=REPEATS):
    """Interleaved best-of-``repeats`` timings + peaks for all three modes.

    The tiled plan executes under the shape's reduced memory budget
    (slabs / ``BUDGET_DIV``); the budget tunable is restored afterwards.
    Runs alternate modes so slow drift on a shared machine hits every
    pipeline equally.
    """
    from repro.core import compile as plancache
    from repro.core import runtime
    from repro.core.spec import set_runtime_tunables
    from repro.core.executor import resolve_levels
    from repro.model.perfmodel import predict_tile_window_bytes

    A, B, C = _operands(shape)
    budget = _budget_for(shape, spec, levels)
    plans = {
        mode: plancache.compile(shape, spec, levels=levels, fusion=mode)
        for mode in ("staged", "fused", "tiled")
    }

    def _run(mode):
        if mode == "tiled":
            set_runtime_tunables(mem_budget_bytes=budget)
        try:
            runtime.execute_plan(plans[mode], A, B, C)
        finally:
            if mode == "tiled":
                set_runtime_tunables(mem_budget_bytes=0)
        return runtime.last_report()

    peaks: dict[str, int] = {}
    tiled_rep = None
    for mode in plans:  # warm: compile, arena, spill files
        report = _run(mode)
        peaks[mode] = report.peak_workspace_bytes
        if mode == "tiled":
            tiled_rep = report
    times: dict[str, float] = {mode: float("inf") for mode in plans}
    for _ in range(repeats):
        for mode in plans:
            t0 = time.perf_counter()
            _run(mode)
            times[mode] = min(times[mode], time.perf_counter() - t0)
    m, k, n = shape
    set_runtime_tunables(mem_budget_bytes=budget)
    try:
        predicted = predict_tile_window_bytes(
            m, k, n, resolve_levels(spec, levels)
        )
    finally:
        set_runtime_tunables(mem_budget_bytes=0)
    stats = {
        "budget_bytes": budget,
        "tile_window_bytes": tiled_rep.tile_window_bytes,
        "predicted_window_bytes": predicted,
        "n_tiles": tiled_rep.n_tiles,
        "io_bytes": tiled_rep.io_bytes,
    }
    return times, peaks, stats


def run_sweep():
    """Measure every shape point; returns a list of row dicts."""
    rows = []
    for shape, spec, levels in SHAPES:
        times, peaks, stats = measure_point(shape, spec, levels)
        rows.append({
            "shape": list(shape),
            "algorithm": f"{spec}-L{levels}",
            "staged_ms": times["staged"] * 1e3,
            "fused_ms": times["fused"] * 1e3,
            "tiled_ms": times["tiled"] * 1e3,
            "staged_peak_bytes": peaks["staged"],
            "fused_peak_bytes": peaks["fused"],
            "tiled_peak_bytes": peaks["tiled"],
            "tiled_vs_fused": times["tiled"] / times["fused"],
            **stats,
        })
    return rows


# ---------------------------------------------------------------------- #
# pytest mode
# ---------------------------------------------------------------------- #
def test_tiled_peak_below_staged_on_at_least_two_shapes():
    """Acceptance: tiled peak RAM < staged peak on >= 2 shapes, and the
    measured peak never exceeds the priced window (which equals the
    report's ``tile_window_bytes`` by construction).  Deterministic
    byte counts from the arena high-water meter, no wall-clock."""
    rows = run_sweep()
    for r in rows:
        assert r["tile_window_bytes"] == r["predicted_window_bytes"], r
        assert 0 < r["tiled_peak_bytes"] <= r["tile_window_bytes"], r
        assert r["n_tiles"] > 0 and r["io_bytes"] > 0, r
    lower = [r for r in rows if r["tiled_peak_bytes"] < r["staged_peak_bytes"]]
    assert len(lower) >= 2, [
        (r["shape"], r["staged_peak_bytes"], r["tiled_peak_bytes"])
        for r in rows
    ]


def test_tiled_wallclock_within_margin_of_incore():
    """Acceptance: summed over the sweep, tiled wall-clock stays within
    ``SPEED_MARGIN`` of the in-core fused pipeline at in-RAM sizes."""
    rows = run_sweep()
    total_fused = sum(r["fused_ms"] for r in rows)
    total_tiled = sum(r["tiled_ms"] for r in rows)
    assert total_tiled <= total_fused * SPEED_MARGIN, (
        f"tiled {total_tiled:.1f}ms vs fused {total_fused:.1f}ms "
        f"(> {SPEED_MARGIN:.0%} margin)"
    )


def test_out_of_core_acceptance_memmap_operands_4x_budget(tmp_path):
    """Acceptance: a 2-level multiply on memmap operands whose slabs are
    4x the budget completes via the tiled lowering, bitwise-equal to the
    in-core result, with measured peak RAM <= the priced window."""
    from repro.core.executor import multiply, resolve_levels
    from repro.core.runtime import last_report
    from repro.core.spec import operand_slab_bytes, set_runtime_tunables
    from repro.model.perfmodel import predict_tile_window_bytes

    m = k = n = 256
    ml = resolve_levels("strassen", 2)
    budget = operand_slab_bytes(m, k, n, ml) // 4
    rng = np.random.default_rng(2017)
    Am = np.memmap(tmp_path / "A.dat", dtype=np.float64, mode="w+",
                   shape=(m, k))
    Bm = np.memmap(tmp_path / "B.dat", dtype=np.float64, mode="w+",
                   shape=(k, n))
    Am[:] = rng.standard_normal((m, k))
    Bm[:] = rng.standard_normal((k, n))
    ref = multiply(np.array(Am), np.array(Bm), algorithm="strassen",
                   levels=2, variant="abc", fusion="fused")
    set_runtime_tunables(mem_budget_bytes=budget)
    try:
        out = multiply(Am, Bm, algorithm="strassen", levels=2,
                       variant="abc", fusion="auto")
        rep = last_report()
        predicted = predict_tile_window_bytes(m, k, n, ml)
    finally:
        set_runtime_tunables(mem_budget_bytes=0)
    assert rep.fusion == "tiled", rep.fusion
    assert rep.tile_window_bytes == predicted
    assert 0 < rep.peak_workspace_bytes <= predicted
    np.testing.assert_array_equal(out, ref)


# ---------------------------------------------------------------------- #
# standalone mode
# ---------------------------------------------------------------------- #
def main() -> None:
    from repro.bench.reporting import write_bench_json

    print(f"out-of-core benchmark (host has {os.cpu_count()} cores, "
          f"tiled budget = slabs/{BUDGET_DIV})")
    print(f"{'shape':>14} {'algorithm':>22} "
          f"{'staged ms':>10} {'fused ms':>9} {'tiled ms':>9} {'t/f':>5} "
          f"{'staged MiB':>11} {'tiled MiB':>10} {'window MiB':>11} "
          f"{'tiles':>6}")
    rows = run_sweep()
    for r in rows:
        shape = "x".join(str(d) for d in r["shape"])
        print(f"{shape:>14} {r['algorithm']:>22} "
              f"{r['staged_ms']:10.1f} {r['fused_ms']:9.1f} "
              f"{r['tiled_ms']:9.1f} {r['tiled_vs_fused']:4.2f}x "
              f"{r['staged_peak_bytes'] / 2**20:11.2f} "
              f"{r['tiled_peak_bytes'] / 2**20:10.2f} "
              f"{r['tile_window_bytes'] / 2**20:11.2f} "
              f"{r['n_tiles']:>6}")
    total_fused = sum(r["fused_ms"] for r in rows)
    total_tiled = sum(r["tiled_ms"] for r in rows)
    print(f"\ntotal: fused {total_fused:.1f}ms, tiled {total_tiled:.1f}ms "
          f"({total_tiled / total_fused:.2f}x; margin {SPEED_MARGIN:.2f}x)")
    out = write_bench_json("out_of_core", {
        "budget_divisor": BUDGET_DIV,
        "speed_margin": SPEED_MARGIN,
        "rows": rows,
    })
    print(f"[saved {out}]")


if __name__ == "__main__":
    main()
