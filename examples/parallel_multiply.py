"""Parallel execution quickstart: BLAS data parallelism on real cores.

Every multiply runs its phases — gather the operand blocks into arena
workspace, compute the coefficient products ``M_r``, scatter into the
destination tiles — in order on the calling thread.  The parallelism is
the paper's data parallelism: each leaf product is one ``np.matmul``,
which OpenBLAS runs on all of its threads (``OPENBLAS_NUM_THREADS``
sets how many, before Python starts).

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

    # 1. One worker per multiply; reruns are bitwise identical.
    C1 = multiply(A, B, algorithm="strassen", levels=1)
    C2 = multiply(A, B, algorithm="strassen", levels=1)
    rep = last_report()
    print(f"rerun bitwise equal:         {np.array_equal(C1, C2)} "
          f"({rep.worker_mode}, threads={rep.threads})")
    print(f"vs numpy oracle:             {np.abs(C1 - A @ B).max():.3e}")

    # 2. The workspace arena recycles every temporary: repeated same-plan
    #    multiplies allocate nothing on the hot path.
    before = arena_stats()
    for _ in range(10):
        multiply(A, B, algorithm="strassen", levels=1)
    after = arena_stats()
    print(f"arena: {after.allocations} workspaces allocated, "
          f"{after.reuses - before.reuses} reuses over 10 calls")

    # 3. Auto-dispatch picks the schedule; BLAS picks the threads.
    C = multiply(A, B, engine="auto")
    rep = last_report()
    print(f"engine='auto' max err:       {np.abs(C - A @ B).max():.3e} "
          f"({rep.schedule}, core_path={rep.core_path})")

    # 4. Measured strong scaling of BLAS data parallelism: each core
    #    count runs in a child interpreter with OPENBLAS_NUM_THREADS set.
    cores = tuple(
        p for p in (1, 2, 4) if p <= (os.cpu_count() or 1)
    ) or (1,)
    print(f"\nmeasured scaling at {n}^3 (strassen L1):")
    for p in measured_scaling_curve(n, n, n, threads_list=cores, repeats=2):
        print(f"  {p.cores} BLAS thread(s): {p.time * 1e3:7.2f} ms  "
              f"{p.gflops:6.2f} GFLOPS  speedup {p.speedup:4.2f}x")


if __name__ == "__main__":
    main()
