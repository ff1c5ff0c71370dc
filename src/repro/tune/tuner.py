"""Budgeted empirical tuning: measure the model's favorites, write wisdom.

:func:`tune_problem` is the paper's §4.4 poly-algorithm made persistent:
the performance model ranks the generated family, the top-K candidates
*plus the classical baseline* are measured through the real runtime
(:mod:`repro.tune.measure`), and the measured winner is recorded in the
wisdom store (:mod:`repro.tune.wisdom`) so every later
``multiply(engine="auto")`` in any process dispatches on evidence instead
of a cold model.  :func:`tune_sweep` amortizes one budget across many
problems; :func:`calibrate_machine` closes the loop in the other
direction, back-fitting the machine model's effective peak and bandwidth
from measurements so even wisdom *misses* rank candidates with calibrated
constants.  :func:`resolve_machine` is the one place the model path gets
its machine: an explicit one, the store's record, or — on the first miss
against a store without one — a calibration taken then and recorded.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from repro.core.selection import enumerate_candidates, rank_candidates
from repro.core.spec import normalize_threads
from repro.model.machines import MachineParams
from repro.model.perfmodel import calibrate_lambda, effective_gflops
from repro.obs.logcfg import get_logger
from repro.tune.measure import MeasureConfig, Measurement, measure_candidate
from repro.tune.wisdom import WisdomStore, default_store, fingerprint_digest

_log = get_logger(__name__)

__all__ = [
    "TuneReport",
    "tune_problem",
    "tune_sweep",
    "tune_fused_group",
    "calibrate_machine",
    "fit_machine_params",
    "resolve_machine",
]


@dataclass(frozen=True)
class TuneReport:
    """Outcome of tuning one problem."""

    problem: tuple[int, int, int]
    dtype: str
    config: tuple          #: winner as an ``auto_config`` result tuple
    winner: Measurement
    measurements: tuple[Measurement, ...]
    model_rank1: str       #: the cold model's favorite label, for the record
    bucket: str | None     #: wisdom bucket written (None when not recorded)
    elapsed_s: float

    @property
    def beat_model(self) -> bool:
        """Did measurement overturn the model's rank-1 pick?"""
        return self.winner.label != self.model_rank1


def _candidate_threads(threads, m, k, n, ml, variant) -> int:
    from repro.core.parallel import pick_threads

    if threads is not None:
        return int(threads)
    return pick_threads(m, k, n, ml, variant)


def tune_problem(
    m: int,
    k: int,
    n: int,
    *,
    dtype=np.float64,
    threads: int | None = None,
    top: int = 3,
    max_levels: int = 2,
    machine: MachineParams | None = None,
    store: WisdomStore | None = None,
    budget_s: float = 2.0,
    measure_config: MeasureConfig | None = None,
    record: bool = True,
) -> TuneReport:
    """Measure the model's top-``top`` candidates + GEMM baseline; record wisdom.

    Parameters
    ----------
    m, k, n : int
        Problem size to tune for.
    dtype : dtype-like, optional
        Execution dtype of the measured multiplies.  Default float64.
    threads : int or None, optional
        Tune for an explicit worker count; ``None`` (default) lets the
        machine model pick per candidate and buckets the verdict under
        the ``auto`` thread class.
    top : int, optional
        Model finalists to measure (the classical GEMM baseline is always
        measured in addition, and the rank-1 finalist is re-measured
        through every available non-reference leaf backend when its
        thread pick is serial — the backend dimension of the tuned
        config; the measured winner is re-measured through the
        shared-memory process runtime when its thread pick is parallel —
        the workers dimension).  Default 3.
    max_levels : int, optional
        Deepest schedule the model enumerates (mixed per-level stacks
        included).  Default 2.
    machine : MachineParams, optional
        Model constants for the ranking pass; defaults to the store's
        calibrated machine, measuring this host first when the store has
        none (:func:`resolve_machine`).
    store : WisdomStore, optional
        Where the verdict is recorded; defaults to
        :func:`~repro.tune.wisdom.default_store`.
    budget_s : float, optional
        Wall-clock budget, split across the finalists — each measurement
        gets the remaining budget divided by the remaining finalists, so
        an expensive early candidate squeezes (never starves: every
        finalist gets at least one timed sample) the later ones.
    measure_config : MeasureConfig, optional
        Warmup/repeat/GC-pinning policy for each measurement.
    record : bool, optional
        Set False to measure without writing a wisdom entry (a store
        with no machine record still gets the calibration
        :func:`resolve_machine` takes).

    Returns
    -------
    TuneReport
        The winner (as an ``auto_config`` tuple and a
        :class:`~repro.tune.measure.Measurement`), every finalist's
        measurement, the cold model's rank-1 label, and the wisdom
        bucket written (``None`` when ``record=False``).

    See Also
    --------
    tune_sweep : amortize one budget across several problems.
    calibrate_machine : back-fit the machine model this ranking prices with.
    """
    t_start = time.perf_counter()
    threads = normalize_threads(threads)  # bad counts fail before measuring
    store = store if store is not None else default_store()
    machine = resolve_machine(store, machine)
    dt = np.dtype(dtype)

    ranked = rank_candidates(
        enumerate_candidates(m, k, n, machine, max_levels=max_levels)
    )
    # (algorithm_spec, levels, variant, ml_or_None, label, backend)
    finalists: list[tuple] = []
    for c in ranked[: max(1, top)]:
        finalists.append((c.shapes, len(c.shapes), c.variant, c.multilevel(),
                          c.label, "reference"))
    finalists.append(("classical", 1, "abc", None, "classical/abc",
                      "reference"))
    model_rank1 = ranked[0].label if ranked else "classical/abc"

    # The backend dimension: re-enter the model's favorite through each
    # non-reference backend that is available *and* serves the candidate's
    # thread pick (compiling backends are serial-2-D specialists — a
    # threaded duplicate would just re-measure the interpreter).
    from repro import kernels

    if ranked:
        spec0, lv0, var0, ml0, lab0, _ = finalists[0]
        t0 = _candidate_threads(threads, m, k, n, ml0, var0)
        if t0 == 1:
            for b in kernels.available_backends():
                if b.name != "reference":
                    finalists.append((spec0, lv0, var0, ml0, lab0, b.name))

    base_cfg = measure_config or MeasureConfig()
    deadline = t_start + budget_s
    measured: list[tuple[Measurement, tuple]] = []
    for i, (spec, levels, variant, ml, _label, backend) in enumerate(finalists):
        remaining = max(deadline - time.perf_counter(), 1e-3)
        slice_s = remaining / (len(finalists) - i)
        t = _candidate_threads(threads, m, k, n, ml, variant)
        meas = measure_candidate(
            m, k, n, spec, levels=levels, variant=variant, dtype=dt,
            engine="direct", threads=t, backend=backend,
            config=MeasureConfig(
                warmup=base_cfg.warmup, repeats=base_cfg.repeats,
                inner=base_cfg.inner, budget_s=slice_s, pin_gc=base_cfg.pin_gc,
            ),
        )
        algo_doc = ("classical" if spec == "classical"
                    else [list(s) for s in spec])
        cfg_doc = {
            "algorithm": algo_doc,
            "levels": int(levels),
            "variant": variant,
            "engine": "direct",
            "threads": int(t),
            "backend": backend,
            "workers": "threads",
        }
        measured.append((meas, cfg_doc))

    best_i = min(range(len(measured)), key=lambda i: measured[i][0].time_s)
    winner, winner_cfg = measured[best_i]

    # The workers dimension: re-measure the winner through the
    # shared-memory process runtime when its thread pick is parallel
    # (serial execution is either mode at one worker, so there is
    # nothing to compare) — the measured mode is what wisdom replays.
    if int(winner_cfg["threads"]) > 1 and winner_cfg["backend"] == "reference":
        spec_w, lv_w, var_w, _ml_w, _lab_w, _b_w = finalists[best_i]
        remaining = max(deadline - time.perf_counter(), 1e-3)
        meas_p = measure_candidate(
            m, k, n, spec_w, levels=lv_w, variant=var_w, dtype=dt,
            engine="direct", threads=int(winner_cfg["threads"]),
            backend="reference", workers="processes",
            config=MeasureConfig(
                warmup=base_cfg.warmup, repeats=base_cfg.repeats,
                inner=base_cfg.inner, budget_s=remaining,
                pin_gc=base_cfg.pin_gc,
            ),
        )
        measured.append((meas_p, {**winner_cfg, "workers": "processes"}))
        if meas_p.time_s < winner.time_s:
            winner, winner_cfg = measured[-1]

    _log.info(
        "tuned %dx%dx%d (%s): winner %s at %.2f GFLOP/s",
        m, k, n, dt.name, winner.label, winner.gflops,
    )
    bucket = None
    if record:
        bucket = store.record(
            m, k, n,
            config=winner_cfg,
            gflops=winner.gflops,
            time_s=winner.time_s,
            samples=winner.samples,
            dtype=dt,
            threads=threads,
        )

    from repro.tune.wisdom import config_tuple

    return TuneReport(
        problem=(int(m), int(k), int(n)),
        dtype=dt.name,
        config=config_tuple(winner_cfg),
        winner=winner,
        measurements=tuple(ms for ms, _ in measured),
        model_rank1=model_rank1,
        bucket=bucket,
        elapsed_s=time.perf_counter() - t_start,
    )


def tune_sweep(
    problems,
    *,
    budget_s: float = 10.0,
    **kwargs,
) -> list[TuneReport]:
    """Tune several problems under one overall budget.

    The budget is split evenly up front, with unspent time from fast
    problems rolled into the remaining ones.
    """
    problems = [tuple(int(x) for x in p) for p in problems]
    if not problems:
        return []
    deadline = time.perf_counter() + budget_s
    reports = []
    for i, (m, k, n) in enumerate(problems):
        remaining = max(deadline - time.perf_counter(), 1e-3)
        reports.append(
            tune_problem(m, k, n, budget_s=remaining / (len(problems) - i),
                         **kwargs)
        )
    return reports


def tune_fused_group(
    m: int = 240,
    k: int = 240,
    n: int = 240,
    *,
    algorithm="strassen",
    levels: int = 2,
    dtype=np.float64,
    candidates: tuple[int, ...] = (4, 8, 16, 32),
    store: WisdomStore | None = None,
    measure_config: MeasureConfig | None = None,
    record: bool = True,
) -> int:
    """Measure the fused-pipeline group size on this host and record it.

    The fused runtime streams products through per-worker buffer groups
    of ``DEFAULT_FUSED_GROUP`` strips; the sweet spot is a cache
    property, so it is a per-machine tunable, not a constant.  This
    times one representative fused multiply per candidate group size
    (via :func:`repro.core.spec.set_runtime_tunables`) and persists the
    winner in the wisdom store's per-fingerprint tunables section —
    every later process that loads the store runs with the measured
    group (see :meth:`~repro.tune.wisdom.WisdomStore.apply_tunables`).
    Returns the winning group size; the process is left running with it
    (``record=True``) or restored to its prior tunables.
    """
    from repro.core.spec import runtime_tunables, set_runtime_tunables

    store = store if store is not None else default_store()
    if not candidates:
        raise ValueError("need at least one candidate group size")
    prior = runtime_tunables()
    results: list[tuple[float, int]] = []
    try:
        for g in candidates:
            set_runtime_tunables(fused_group=int(g))
            meas = measure_candidate(
                m, k, n, algorithm, levels=levels, variant="abc",
                dtype=dtype, engine="direct", threads=1, fusion="fused",
                config=measure_config,
            )
            results.append((meas.time_s, int(g)))
    finally:
        set_runtime_tunables(
            fused_group=prior["fused_group"],
            fused_auto_threshold=prior["fused_auto_threshold"],
        )
    best = min(results)[1]
    if record:
        store.record_tunables(fused_group=best)
        store.apply_tunables()
    return best


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
    processes rank candidates with calibrated constants even on wisdom
    misses.  :func:`resolve_machine` calls this once per store on its
    first model-path miss; ``repro tune --calibrate`` re-measures.
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
    """The machine model a wisdom miss prices candidates with.

    ``machine`` when given; else the store's recorded calibration; else
    this host is measured now (:func:`calibrate_machine`) and the fit
    recorded, so later misses in this process — and, once the file is
    written, in any process sharing the store — price with it instead of
    re-measuring.  Concurrent first misses serialize on the store's
    :attr:`~repro.tune.wisdom.WisdomStore.calibration_lock` and re-check
    the record inside it: the host is probed once, not once per thread
    (each probe would also time the others' BLAS work).

    ``multiply(engine="auto")`` under ``tune="readonly"`` or ``"on"``,
    :func:`tune_problem` and ``repro tune`` all resolve through here;
    ``tune="off"`` bypasses it for the pure
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
