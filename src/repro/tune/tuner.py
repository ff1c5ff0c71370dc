"""Machine calibration: back-fit the model ``engine="auto"`` prices with.

The selector ranks the generated family with the paper's §4.4
performance model, whose machine constants are this host's, not a
datasheet's.  :func:`calibrate_machine` times two ``np.matmul`` probes
and :func:`fit_machine_params` turns them into a
:class:`~repro.model.machines.MachineParams`.  :func:`resolve_machine`
is the one place the model path gets its machine: an explicit one, the
store's record, or — on the first call against a store without one — a
calibration taken then and recorded in the wisdom store
(:mod:`repro.tune.wisdom`).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.model.machines import MachineParams
from repro.model.perfmodel import calibrate_lambda, effective_gflops
from repro.obs.logcfg import get_logger
from repro.tune.wisdom import WisdomStore, default_store, fingerprint_digest

_log = get_logger(__name__)

__all__ = [
    "calibrate_machine",
    "fit_machine_params",
    "resolve_machine",
]


# ---------------------------------------------------------------------- #
# Machine-model back-fit
# ---------------------------------------------------------------------- #
def _time_matmuls(shapes, rounds: int = 10) -> list[float]:
    """Best-of-``rounds`` wall-clock of one ``np.matmul`` (the real GEMM
    substrate) per ``(m, k, n)`` in ``shapes``.

    Each round times every shape once, so all probes sample the same host
    conditions.  Timed back to back instead, load from other processes
    preempts the long compute probe far more often than the short
    bandwidth one, and skews their ratio — the quantity the model's
    FMM-vs-GEMM verdict turns on — toward FMM.
    """
    rng = np.random.default_rng(0)
    ops = []
    for m, k, n in shapes:
        A = rng.standard_normal((m, k))
        B = rng.standard_normal((k, n))
        C = np.empty((m, n))
        np.matmul(A, B, out=C)  # warm
        ops.append((A, B, C))
    best = [float("inf")] * len(ops)
    for _ in range(rounds):
        for i, (A, B, C) in enumerate(ops):
            t0 = time.perf_counter()
            np.matmul(A, B, out=C)
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def fit_machine_params(
    compute_gflops: float,
    bandwidth_gbs: float,
    *,
    cores: int | None = None,
    headroom: float = 1.1,
) -> MachineParams:
    """Back-fit a :class:`MachineParams` from two measured rates.

    ``compute_gflops`` is the sustained rate of a compute-bound GEMM and
    ``bandwidth_gbs`` the effective rate of a memory-bound streaming
    product, both as :func:`calibrate_machine` measures them: the best
    of repeated single ``np.matmul`` calls, which the BLAS runs on all of
    its threads.  The
    fit sets the effective peak *per core* ``headroom`` above
    ``compute_gflops`` and ``cores`` to ``os.cpu_count()`` unless given,
    so the modeled whole-host peak is ``cores * headroom`` times the
    measured multi-threaded rate.  The prefetch-efficiency lambda is then
    bisected (:func:`repro.model.perfmodel.calibrate_lambda`) toward the
    model's large-GEMM rate matching ``compute_gflops``; where that rate
    stays above the measurement even at lambda = 1 (the usual case on a
    multi-core host, because of the ``cores`` factor), lambda is 1.
    """
    if compute_gflops <= 0 or bandwidth_gbs <= 0:
        raise ValueError("measured rates must be positive")
    cores = cores or os.cpu_count() or 1
    fitted = MachineParams(
        name=f"tuned-{fingerprint_digest()}",
        peak_gflops_per_core=compute_gflops * headroom,
        bandwidth_gbs=bandwidth_gbs,
        cores=int(cores),
        lam=0.7,
    )
    return calibrate_lambda(fitted, compute_gflops)


def calibrate_machine(
    *,
    store: WisdomStore | None = None,
    size: int = 384,
    record: bool = True,
) -> MachineParams:
    """Measure this host and back-fit the machine model the selector prices with.

    Two quick probes, interleaved and best-of-10 (about 40 ms including
    the record on a 2-core host): a ``size``^3 matmul for the sustained
    compute rate, and a wide rank-k update (``size x 8 x size``,
    traffic-dominated) for the effective bandwidth;
    :func:`fit_machine_params` turns them into model constants.  With
    ``record`` the fit is stored in the wisdom file (best effort, see
    :meth:`~repro.tune.wisdom.WisdomStore.record_machine`) so future
    processes rank candidates with calibrated constants without
    re-measuring.  :func:`resolve_machine` calls this once per store on
    its first model-path call; ``repro tune --calibrate`` re-measures.
    """
    store = store if store is not None else default_store()

    kk = 8
    t_c, t_b = _time_matmuls([(size, size, size), (size, kk, size)])
    compute = effective_gflops(size, size, size, t_c)
    bytes_moved = 8.0 * (size * kk + kk * size + 2 * size * size)
    bandwidth = bytes_moved / t_b / 1e9
    # A cache-resident probe can report absurd bandwidth; clamp to a sane
    # window so the fitted model stays physical.
    bandwidth = min(max(bandwidth, 1.0), 512.0)

    params = fit_machine_params(compute, bandwidth)
    if record:
        store.record_machine(params)
    return params


def resolve_machine(
    store: WisdomStore, machine: MachineParams | None = None
) -> MachineParams:
    """The machine model ``engine="auto"``'s model path prices candidates with.

    ``machine`` when given; else the store's recorded calibration; else
    this host is measured now (:func:`calibrate_machine`) and the fit
    recorded, so later calls in this process — and, once the file is
    written, in any process sharing the store — price with it instead of
    re-measuring.  Concurrent first calls serialize on the store's
    :attr:`~repro.tune.wisdom.WisdomStore.calibration_lock` and re-check
    the record inside it: the host is probed once, not once per thread
    (each probe would also time the others' BLAS work).

    ``multiply(engine="auto")`` under ``tune="readonly"`` resolves
    through here; ``tune="off"`` bypasses it for the pure
    :func:`~repro.model.machines.generic_laptop` model.
    """
    if machine is not None:
        return machine
    recorded = store.machine_params()
    if recorded is not None:
        return recorded
    with store.calibration_lock:
        recorded = store.machine_params()
        if recorded is None:
            recorded = calibrate_machine(store=store)
            _log.info(
                "calibrated %s for %s: peak %.1f GF/core, bandwidth %.1f GB/s",
                recorded.name, store.path, recorded.peak_gflops_per_core,
                recorded.bandwidth_gbs,
            )
        return recorded
