"""Seed wisdom from observed serving traffic.

Dedicated tune runs (:mod:`repro.tune.tuner`) measure candidates on
synthetic operands; a serving process, meanwhile, is *already* timing
the real thing — every ``execute_plan`` call publishes an
:class:`~repro.core.runtime.ExecutionReport` into the bounded history of
:mod:`repro.obs.reports`.  This module turns that history into wisdom:
:func:`observed_measurements` re-exports the history's per-configuration
latency summaries, and :func:`seed_wisdom_from_observations` records the
best-observed configuration per problem bucket into a
:class:`~repro.tune.wisdom.WisdomStore` — the first concrete step toward
the ROADMAP's online explore/exploit tuning.

Honesty limits, by construction:

* Only reports whose schedule signature re-parses through the spec
  grammar are seeded (an ad-hoc non-catalog algorithm has no stable
  name to store); batched executions are excluded upstream because
  their duration is not a per-multiply measurement.
* Observations are *passive*: they record what traffic happened to run,
  not a comparison across candidates.  Seeding therefore never
  overwrites a bucket the store already has a verdict for unless
  ``overwrite=True`` — a tuned verdict beats a traffic sample.
* Observed durations come from the direct execution path the runtime
  serves; the blocked simulator engine never publishes competitive
  latencies, so no engine field needs disambiguating — seeds record
  ``engine="direct"`` exactly like the tuner.
"""

from __future__ import annotations

import numpy as np

from repro.model.perfmodel import effective_gflops
from repro.obs import reports as obs_reports
from repro.obs.logcfg import get_logger
from repro.tune.wisdom import WisdomStore, default_store, problem_bucket

_log = get_logger(__name__)

__all__ = ["observed_measurements", "seed_wisdom_from_observations"]


def observed_measurements(min_count: int = 1) -> list[dict]:
    """Per-configuration latency summaries from the live report history.

    Groups the retained ExecutionReports by ``(shape, dtype, schedule,
    variant, threads, backend, worker_mode)`` and summarizes each
    group's durations (``count``, ``best_s``, ``p50_s``, ``mean_s``).
    ``min_count`` drops groups with fewer samples — a single noisy call
    should not become wisdom.
    """
    return obs_reports.observed_measurements(min_count)


def _config_from_observation(obs: dict) -> dict | None:
    """A tuner-style wisdom config doc for one observation group.

    Returns ``None`` when the schedule signature does not re-parse (an
    ad-hoc algorithm object was planned directly) — such traffic cannot
    be replayed from a stored name, so it is skipped rather than
    misattributed.  The classical schedule is stored in the
    ``"classical"`` form the tuner writes: its ``<1,1,1>`` dims name no
    catalog shape, so a dims list would not replay.
    """
    from repro.core.spec import classical_depth, resolve_levels

    try:
        ml = resolve_levels(obs["schedule"], 1)
    except Exception:
        return None
    return {
        "algorithm": "classical" if classical_depth(ml)
        else [list(level.dims) for level in ml.levels],
        "levels": len(ml.levels),
        "variant": obs["variant"],
        "engine": "direct",
        "threads": int(obs["threads"]),
        "backend": obs["backend"],
        "workers": obs["worker_mode"] if obs["worker_mode"] == "processes"
        else "threads",
    }


def seed_wisdom_from_observations(
    store: WisdomStore | None = None,
    *,
    min_count: int = 3,
    overwrite: bool = False,
    save: bool = True,
) -> list[str]:
    """Record the best-observed configuration per problem bucket.

    For every problem bucket with at least ``min_count`` observed
    executions, the configuration with the lowest best-observed latency
    is written to ``store`` (the default wisdom store when ``None``).
    Existing buckets are preserved unless ``overwrite=True`` — a
    deliberate tune verdict outranks passive observation.  Returns the
    buckets written.
    """
    store = default_store() if store is None else store
    # Best observation per bucket: traffic may have hit the same bucket
    # with several configurations; the fastest observed one wins.
    best: dict[str, tuple[float, dict]] = {}
    for obs in observed_measurements(min_count):
        cfg = _config_from_observation(obs)
        if cfg is None:
            continue
        m, k, n = obs["shape"]
        bucket = problem_bucket(m, k, n, obs["dtype"], None)
        prev = best.get(bucket)
        if prev is None or obs["best_s"] < prev[0]:
            best[bucket] = (obs["best_s"], {**obs, "config": cfg})
    written = []
    existing = store.entries()
    for bucket, (best_s, obs) in sorted(best.items()):
        if not overwrite and bucket in existing:
            continue
        m, k, n = obs["shape"]
        store.record(
            m, k, n,
            config=obs["config"],
            gflops=effective_gflops(m, k, n, best_s),
            time_s=best_s,
            samples=obs["count"],
            dtype=np.dtype(obs["dtype"]),
            threads=None,
            save=save,
        )
        written.append(bucket)
    if written:
        _log.info(
            "seeded %d wisdom bucket(s) from %d observed configuration "
            "group(s)", len(written), len(best),
        )
    return written
