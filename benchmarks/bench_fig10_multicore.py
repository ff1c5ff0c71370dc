"""Fig. 10 reproduction: 10-core performance, ours vs the reference [1].

The paper's top row is its generated implementations (best variant per
point); the bottom row approximates [1], which is structurally the Naive
variant (explicit M_r and operand-sum temporaries).  Bandwidth contention
at 10 cores flattens all curves toward the memory roofline; our analog
prices the same counters with the shared-socket machine config.
"""

from __future__ import annotations

import pytest

from conftest import print_and_save
from repro.algorithms.catalog import fig2_family
from repro.bench.runner import run_series
from repro.bench.workloads import (
    fig7_fixed_k_sweep,
    fig7_rank_k_sweep,
    fig7_square_sweep,
)

SWEEPS = {
    "square": fig7_square_sweep,
    "rank_k": fig7_rank_k_sweep,
    "fixed_k": fig7_fixed_k_sweep,
}


def build(machine, sweep, variant):
    """variant='best' mirrors the paper's 'best of our generated code'."""
    series = [run_series(sweep, None, 1, "abc", machine, tier="sim", label="BLIS")]
    for entry in fig2_family():
        label = "<%d,%d,%d>" % entry.dims
        if variant != "best":
            series.append(
                run_series(sweep, entry.algorithm, 1, variant, machine,
                           tier="sim", label=label)
            )
            continue
        per_variant = [
            run_series(sweep, entry.algorithm, 1, v, machine, tier="sim", label=label)
            for v in ("naive", "ab", "abc")
        ]
        best = per_variant[0]
        for s in per_variant[1:]:
            for i, p in enumerate(s.points):
                if p.time < best.points[i].time:
                    best.points[i] = p
        series.append(best)
    return series


@pytest.mark.parametrize("regime", list(SWEEPS))
def test_fig10_ours_vs_reference(paper_machine_10core, benchmark, regime):
    sweep = SWEEPS[regime]()[::2]
    ours = benchmark.pedantic(
        build, args=(paper_machine_10core, sweep, "best"), rounds=1, iterations=1
    )
    reference = build(paper_machine_10core, sweep, "naive")
    print_and_save(f"fig10_{regime}_ours", ours)
    print_and_save(f"fig10_{regime}_reference", reference)

    strassen_ours = ours[1].gflops()
    strassen_ref = reference[1].gflops()
    gemm = ours[0].gflops()

    if regime in ("rank_k", "fixed_k"):
        # Paper §5.3: "ours" (best generated variant per point) beats the
        # reference-style Naive implementation everywhere, strictly so in
        # the genuinely rank-k regime where the fused ABC variant shines.
        for (mm, kk, nn), o, r in zip(
            ours[1].shapes(), strassen_ours, strassen_ref
        ):
            assert o >= r * (1 - 1e-9), (mm, kk, nn)
            if kk <= 2048:
                assert o > r * 1.02, (mm, kk, nn)
        # And beat multithreaded GEMM at the large end.
        assert strassen_ours[-1] > gemm[-1]

    if regime == "square":
        # At large square sizes the gap narrows (temporaries amortize).
        ratio_small = strassen_ours[0] / strassen_ref[0]
        ratio_big = strassen_ours[-1] / strassen_ref[-1]
        assert ratio_big < ratio_small


def test_fig10_bandwidth_ceiling(paper_machine_10core, benchmark):
    """All 10-core curves sit below the 248 GFLOPS peak; GEMM well below it
    at rank-k shapes (memory-bound), matching the paper's flattened plots."""

    def measure():
        small_k = run_series(
            [(14400, 1024, 14400)], None, 1, "abc", paper_machine_10core, tier="sim"
        )
        square = run_series(
            [(12288, 12288, 12288)], None, 1, "abc", paper_machine_10core, tier="sim"
        )
        return small_k.gflops()[0], square.gflops()[0]

    g_small, g_square = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert g_small < g_square < 248.0


def test_fig10_modeled_vs_measured_scaling(benchmark):
    """Modeled and measured strong scaling side by side on this machine.

    The modeled curve is the paper's machine model; the measured curve is
    the paper's kind of parallelism on this host — BLAS data parallelism
    inside every leaf GEMM: the same configuration runs in a child
    interpreter per core count with ``OPENBLAS_NUM_THREADS`` set (counts
    above this host's cores are skipped).  On shared 1-2 core CI the
    measured curve carries little signal, so the assertion is only that
    more BLAS threads do not catastrophically degrade the runtime.
    """
    from repro.core.executor import resolve_levels
    from repro.core.parallel import measured_scaling_curve, scaling_curve

    m = k = n = 768
    threads = (1, 2, 4)

    measured = benchmark.pedantic(
        measured_scaling_curve, args=(m, k, n),
        kwargs=dict(algorithm="strassen", levels=1, variant="abc",
                    threads_list=threads, repeats=2),
        rounds=1, iterations=1,
    )
    modeled = {
        p.cores: p
        for p in scaling_curve(m, k, n, resolve_levels("strassen", 1), "abc",
                               max_cores=max(p.cores for p in measured))
    }
    print(f"\n{'cores':>7} {'time s':>10} {'spdup':>10} {'model spdup':>12}")
    for p in measured:
        mp = modeled.get(p.cores)
        print(f"{p.cores:7d} {p.time:10.4f} {p.speedup:9.2f}x "
              f"{mp.speedup if mp else 1.0:11.2f}x")
    assert measured[0].speedup == 1.0
    # More BLAS threads may not catastrophically degrade the runtime.
    assert all(p.time < measured[0].time * 3.0 for p in measured)
