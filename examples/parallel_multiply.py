"""Parallel execution quickstart: the task-graph runtime on real cores.

``multiply(..., threads=N)`` lowers the compiled plan into a task DAG —
gather the operand blocks into arena workspace, compute the coefficient
products ``M_r``, scatter into conflict-free destination tiles — and runs
it on a reusable worker pool.  ``threads=1`` executes the identical
schedule serially, so parallel results match the serial ones.

Run with ``PYTHONPATH=src python examples/parallel_multiply.py``.
"""

import os

import numpy as np

from repro import arena_stats, last_report, measured_scaling_curve, multiply


def main() -> None:
    rng = np.random.default_rng(0)
    n = 512
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))

    # 1. Explicit thread counts: same answer, more cores.
    C1 = multiply(A, B, algorithm="strassen", levels=1, threads=1)
    C4 = multiply(A, B, algorithm="strassen", levels=1, threads=4)
    print(f"serial vs 4-thread max diff: {np.abs(C4 - C1).max():.3e}")
    print(f"vs numpy oracle:             {np.abs(C4 - A @ B).max():.3e}")

    # 2. The workspace arena recycles every temporary: repeated same-plan
    #    multiplies allocate nothing on the hot path.
    before = arena_stats()
    for _ in range(10):
        multiply(A, B, algorithm="strassen", levels=1, threads=4)
    after = arena_stats()
    print(f"arena: {after.allocations} workspaces allocated, "
          f"{after.reuses - before.reuses} reuses over 10 calls")

    # 3. Auto-dispatch picks the schedule, not the thread count: it runs
    #    serial unless threads= is given.
    C = multiply(A, B, engine="auto", threads=2)
    rep = last_report()
    print(f"engine='auto' max err:       {np.abs(C - A @ B).max():.3e} "
          f"({rep.schedule}, {rep.threads} thread(s) requested, "
          f"{rep.worker_mode})")

    # 4. Measured strong scaling of the real runtime on this machine.
    threads = tuple(
        t for t in (1, 2, 4) if t <= (os.cpu_count() or 1)
    ) or (1,)
    print(f"\nmeasured scaling at {n}^3 (strassen L1):")
    for p in measured_scaling_curve(n, n, n, threads_list=threads, repeats=2):
        print(f"  {p.cores} thread(s): {p.time * 1e3:7.2f} ms  "
              f"{p.gflops:6.2f} GFLOPS  speedup {p.speedup:4.2f}x")


if __name__ == "__main__":
    main()
