"""Persistent autotuning wisdom: measured dispatch verdicts that outlive a process.

The ATLAS/FFTW tradition: empirical measurements are expensive, so their
verdicts are written down.  A :class:`WisdomStore` is a small, versioned
JSON database on disk mapping *problem-class buckets* (shape-ratio class +
size bin + dtype + thread request — see :func:`problem_bucket`) to the
measured-best multiply configuration, scoped to a *machine fingerprint*
(:func:`machine_fingerprint`: CPU count, arch, numpy/BLAS, repro version)
so wisdom tuned on one machine never mis-steers another.

Robustness contract (the store sits on the ``engine="auto"`` dispatch
path, so it must never take the process down):

* writes are atomic — serialize to a sibling temp file, ``os.replace``;
* loads are schema-validated — a corrupt or alien file is set aside as
  ``<path>.corrupt`` (with a warning on the ``repro.tune.wisdom``
  logger) and the store degrades to empty (model-only selection keeps
  working);
* a fingerprint mismatch ignores the stale entries (logged at info);
* lookups go through a small in-process LRU keyed on the exact
  ``(m, k, n, dtype, threads)`` so the hot dispatch path is a dict probe,
  not a log/bucket computation.

The calibrated machine model (back-fit by :mod:`repro.tune.tuner`) rides
in the same file under ``"machine"``.  The first model-path
``engine="auto"`` call on a store without one measures the host and
records it (:func:`repro.tune.tuner.resolve_machine`); that record is
persisted best effort — an unwritable file logs a warning and the model
stays in memory for the process.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import threading
from collections import OrderedDict
from functools import lru_cache as _lru_cache
from pathlib import Path

import numpy as np

from repro.model.machines import MachineParams
from repro.obs.logcfg import get_logger

_log = get_logger(__name__)

__all__ = [
    "SCHEMA_VERSION",
    "TUNABLE_KEYS",
    "WisdomStore",
    "config_signature",
    "config_tuple",
    "machine_fingerprint",
    "fingerprint_digest",
    "problem_bucket",
    "default_store",
    "default_wisdom_path",
    "set_default_store",
]

#: Bump when the on-disk layout changes; older files degrade to empty.
SCHEMA_VERSION = 1

#: Environment override for the default wisdom location.
WISDOM_ENV = "REPRO_WISDOM"

_CONFIG_KEYS = ("algorithm", "levels", "variant", "engine", "threads")

#: Optional per-fingerprint runtime tunables a wisdom file may carry
#: (:func:`repro.core.spec.set_runtime_tunables` knobs): measured-best
#: overrides of the fused-pipeline group size, the staged->fused
#: auto-fusion footprint threshold, the serve coalescing window, and the
#: out-of-core tiled lowering's strip height / memory budget for *this*
#: machine.
TUNABLE_KEYS = (
    "fused_group",
    "fused_auto_threshold",
    "serve_batch_window_us",
    "serve_max_batch",
    "tile_rows",
    "mem_budget_bytes",
)


# ---------------------------------------------------------------------- #
# Keys: machine fingerprint and problem-class bucket
# ---------------------------------------------------------------------- #
def machine_fingerprint() -> dict:
    """What makes measurements on this host comparable to each other.

    Captures the knobs that move wall-clock: core count, architecture,
    the numpy build (its BLAS dominates classical products), the python
    major.minor and the repro version.  Wisdom recorded under a different
    fingerprint is ignored at load time.
    """
    return dict(_fingerprint_cached())


@_lru_cache(maxsize=1)
def _fingerprint_cached() -> tuple:
    import platform

    from repro import __version__

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:
        blas = "unknown"
    return tuple({
        "cpu_count": os.cpu_count() or 1,
        "machine": platform.machine(),
        "python": ".".join(platform.python_version_tuple()[:2]),
        "numpy": np.__version__,
        "blas": blas,
        "repro": __version__,
    }.items())


def fingerprint_digest(fp: dict | None = None) -> str:
    """Short stable digest of a fingerprint (used in tuned-machine names)."""
    fp = fp if fp is not None else machine_fingerprint()
    blob = json.dumps(fp, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def problem_bucket(m: int, k: int, n: int, dtype="float64", threads=None) -> str:
    """Problem-class bucket key: size bin x shape-ratio class x dtype x threads.

    Sizes bin by the rounded log2 of the geometric-mean dimension; shape
    ratios by the rounded log2 of ``m/k`` and ``n/k``, so a 14400x480x14400
    rank-k update and a 12000^3 cube land in different classes while
    nearby sizes share tuned verdicts.  ``threads=None`` (the "let the
    tuner pick" request) buckets as ``auto``, distinct from explicit
    thread counts.
    """
    if min(m, k, n) < 1:
        raise ValueError(f"invalid problem {(m, k, n)}")
    size_bin = round(math.log2((m * k * n) ** (1.0 / 3.0)))
    r1 = round(math.log2(m / k))
    r2 = round(math.log2(n / k))
    t = "auto" if threads is None else str(int(threads))
    return f"s{size_bin}|r{r1},{r2}|{np.dtype(dtype).name}|t{t}"


def _validate_entry(entry) -> dict:
    """Schema-check one stored bucket entry; raises ValueError when malformed.

    Everything :meth:`WisdomStore.record` writes must be present and sane —
    the CLI and lookups consume these fields without re-checking.
    """
    if not isinstance(entry, dict):
        raise ValueError(f"malformed wisdom entry {entry!r}")
    _validate_config(entry.get("config"))
    prob = entry.get("problem")
    if not (isinstance(prob, list) and len(prob) == 3
            and all(isinstance(x, int) and x >= 1 for x in prob)):
        raise ValueError(f"malformed wisdom problem {prob!r}")
    for field in ("gflops", "time_s"):
        if not isinstance(entry.get(field), (int, float)):
            raise ValueError(f"malformed wisdom {field} {entry.get(field)!r}")
    if not isinstance(entry.get("samples"), int):
        raise ValueError(f"malformed wisdom samples {entry.get('samples')!r}")
    np.dtype(entry.get("dtype"))  # raises TypeError on junk
    return entry


def _validate_config(cfg) -> dict:
    """Schema-check one stored config; raises ValueError when malformed."""
    if not isinstance(cfg, dict) or any(key not in cfg for key in _CONFIG_KEYS):
        raise ValueError(f"malformed wisdom config {cfg!r}")
    algo = cfg["algorithm"]
    if algo != "classical":
        if not (
            isinstance(algo, list)
            and algo
            and all(isinstance(s, list) and len(s) == 3 for s in algo)
        ):
            raise ValueError(f"malformed wisdom algorithm {algo!r}")
    if "schedule" in cfg and not isinstance(cfg["schedule"], str):
        raise ValueError(f"malformed wisdom schedule {cfg['schedule']!r}")
    if cfg["variant"] not in ("naive", "ab", "abc"):
        raise ValueError(f"malformed wisdom variant {cfg['variant']!r}")
    if cfg["engine"] not in ("direct", "blocked"):
        raise ValueError(f"malformed wisdom engine {cfg['engine']!r}")
    if int(cfg["levels"]) < 1 or int(cfg["threads"]) < 1:
        raise ValueError("wisdom levels/threads must be >= 1")
    backend = cfg.get("backend", "reference")
    if not isinstance(backend, str) or not backend:
        # Any *name* is storable (a file may record a backend this
        # process lacks); selection degrades unknown/unavailable names
        # to "reference" at dispatch time.
        raise ValueError(f"malformed wisdom backend {backend!r}")
    from repro.core.spec import WORKER_MODES

    workers = cfg.get("workers", "threads")
    if workers not in WORKER_MODES:
        raise ValueError(f"malformed wisdom workers {workers!r}")
    return cfg


def _validate_tunables(tun) -> dict:
    """Schema-check a stored tunables mapping; raises ValueError when bad."""
    if not isinstance(tun, dict):
        raise ValueError(f"malformed wisdom tunables {tun!r}")
    for key, value in tun.items():
        if key not in TUNABLE_KEYS:
            raise ValueError(f"unknown wisdom tunable {key!r}")
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"malformed wisdom tunable {key}={value!r}")
        if key in ("fused_group", "serve_max_batch") and value < 1:
            raise ValueError(f"wisdom {key} must be >= 1")
        if key in (
            "fused_auto_threshold",
            "serve_batch_window_us",
            "tile_rows",
            "mem_budget_bytes",
        ) and value < 0:
            raise ValueError(f"wisdom {key} must be >= 0")
    return tun


def config_signature(cfg: dict) -> str:
    """Canonical schedule signature of a stored config.

    ``"classical@1"`` for the GEMM fallback, else the run-length-encoded
    per-level schedule (e.g. ``"<4,2,4>@1,<2,2,2>@1"``) — the same string
    :attr:`repro.core.spec.Schedule.signature` produces, so wisdom records
    and selection candidates name schedules identically.
    """
    from repro.core.spec import schedule_signature

    algo = cfg["algorithm"]
    if algo == "classical":
        return schedule_signature("classical", int(cfg.get("levels", 1)))
    return schedule_signature([tuple(int(x) for x in s) for s in algo])


def config_tuple(cfg: dict) -> tuple:
    """Stored config -> the ``(algorithm, levels, variant, engine, threads,
    backend, workers)`` tuple :func:`repro.core.selection.auto_config`
    returns.  Configs recorded before the backend / workers dimensions
    existed read as ``"reference"`` / ``"threads"`` (what they actually
    measured)."""
    algo = cfg["algorithm"]
    if algo != "classical":
        algo = tuple(tuple(int(x) for x in s) for s in algo)
    return (algo, int(cfg["levels"]), cfg["variant"], cfg["engine"],
            int(cfg["threads"]), cfg.get("backend", "reference"),
            cfg.get("workers", "threads"))


# ---------------------------------------------------------------------- #
# The store
# ---------------------------------------------------------------------- #
class WisdomStore:
    """JSON-on-disk wisdom database with an in-process LRU lookup layer.

    Thread-safe; every mutation persists immediately (records are rare —
    one per tuned problem class — while lookups are the hot path).

    Parameters
    ----------
    path : str or Path
        The JSON file backing the store; created on first :meth:`save`.
        Use :func:`default_wisdom_path` for the conventional location.
    hot_size : int, optional
        Capacity of the exact-probe LRU in front of the bucket map.

    Attributes
    ----------
    path : Path
        Backing file location.
    recovered_corrupt : bool
        True when the last :meth:`load` set aside an unreadable file.
    ignored_stale : bool
        True when the file was tuned under a different machine
        fingerprint and its entries were ignored.
    hot_hits, hot_misses : int
        LRU telemetry for the dispatch hot path.

    See Also
    --------
    default_store : the process-wide store ``engine="auto"`` consults.
    problem_bucket : how problems map to wisdom buckets.

    Examples
    --------
    >>> import tempfile, os
    >>> store = WisdomStore(os.path.join(tempfile.mkdtemp(), "w.json"))
    >>> store.lookup(256, 256, 256) is None
    True
    """

    def __init__(self, path: str | Path, *, hot_size: int = 1024) -> None:
        self.path = Path(path)
        self._lock = threading.RLock()
        self._entries: dict[str, dict] = {}
        self._machine: MachineParams | None = None
        self._tunables: dict = {}
        self._fingerprint = machine_fingerprint()
        self._hot: OrderedDict[tuple, dict | None] = OrderedDict()
        self._hot_size = int(hot_size)
        #: Held while the host is measured for this store
        #: (:func:`repro.tune.tuner.resolve_machine`), so concurrent first
        #: misses calibrate once instead of timing each other's probes.
        self.calibration_lock = threading.Lock()
        self.hot_hits = 0
        self.hot_misses = 0
        #: Diagnostics from the last load.
        self.recovered_corrupt = False
        self.ignored_stale = False
        self.load()

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def load(self) -> None:
        """(Re)read the file; never raises on bad content.

        A file that fails JSON parsing or schema validation is moved
        aside to ``<path>.corrupt`` (best effort) and the store starts
        empty; entries recorded under a different machine fingerprint are
        ignored, not deleted — they are dropped at the next save.
        """
        with self._lock:
            self._entries = {}
            self._machine = None
            self._tunables = {}
            self._hot.clear()
            self.recovered_corrupt = False
            self.ignored_stale = False
            if not self.path.exists():
                return
            try:
                doc = json.loads(self.path.read_text())
                if not isinstance(doc, dict) or doc.get("version") != SCHEMA_VERSION:
                    raise ValueError(f"unsupported wisdom schema in {self.path}")
                entries = doc.get("entries", {})
                if not isinstance(entries, dict):
                    raise ValueError("wisdom entries must be a mapping")
                for bucket, entry in entries.items():
                    _validate_entry(entry)
                machine = doc.get("machine")
                if machine is not None:
                    machine = self._machine_params_from(machine)  # validates
                tunables = _validate_tunables(doc.get("tunables", {}))
            except Exception:
                self.recovered_corrupt = True
                _log.warning(
                    "wisdom file %s failed to parse/validate; setting it "
                    "aside as %s and starting empty",
                    self.path, self.path.with_suffix(self.path.suffix + ".corrupt"),
                    exc_info=True,
                )
                self._set_aside_corrupt()
                return
            if doc.get("fingerprint") != self._fingerprint:
                self.ignored_stale = True
                _log.info(
                    "wisdom file %s was tuned on a different machine "
                    "fingerprint; ignoring its entries", self.path,
                )
                return
            self._entries = entries
            self._machine = machine
            self._tunables = dict(tunables)

    def _set_aside_corrupt(self) -> None:
        try:
            os.replace(self.path, self.path.with_suffix(self.path.suffix + ".corrupt"))
        except OSError:
            pass

    def _merge_from_disk(self) -> None:
        """Fold in entries another process persisted since our last load.

        Without this, two long-lived processes sharing one wisdom file
        would each rewrite it from their own in-memory view and silently
        erase the other's tuned verdicts.  On-disk entries only fill
        buckets we have no verdict for (our own records are newer by
        construction); unreadable/stale/corrupt disk state is ignored —
        the atomic write below still wins.
        """
        try:
            doc = json.loads(self.path.read_text())
            if (not isinstance(doc, dict)
                    or doc.get("version") != SCHEMA_VERSION
                    or doc.get("fingerprint") != self._fingerprint):
                return
            entries = doc.get("entries", {})
            if not isinstance(entries, dict):
                return
            merged = False
            for bucket, entry in entries.items():
                if bucket not in self._entries:
                    _validate_entry(entry)
                    self._entries[bucket] = entry
                    merged = True
            if self._machine is None and doc.get("machine") is not None:
                self._machine = self._machine_params_from(doc["machine"])
            # Tunables are deliberately NOT merged from disk: like a
            # record(), the last record_tunables() wins — otherwise a
            # cleared section would resurrect from the previous save.
            if merged:
                self._hot.clear()
        except Exception:
            return

    def save(self, *, merge: bool = True) -> Path:
        """Atomically serialize the store (temp file + ``os.replace``),
        merging entries concurrently written by other processes first
        (``merge=False`` forces a plain overwrite — used by :meth:`clear`)."""
        with self._lock:
            if merge and self.path.exists():
                self._merge_from_disk()
            doc = {
                "version": SCHEMA_VERSION,
                "fingerprint": self._fingerprint,
                "entries": self._entries,
            }
            if self._machine is not None:
                mp = self._machine
                doc["machine"] = {
                    "name": mp.name,
                    "peak_gflops_per_core": mp.peak_gflops_per_core,
                    "bandwidth_gbs": mp.bandwidth_gbs,
                    "cores": mp.cores,
                    "lam": mp.lam,
                }
            if self._tunables:
                doc["tunables"] = self._tunables
            payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=self.path.parent, prefix=self.path.name, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write(payload)
                os.replace(tmp, self.path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            return self.path

    # ------------------------------------------------------------------ #
    # Lookup / record
    # ------------------------------------------------------------------ #
    def lookup(self, m: int, k: int, n: int, *, dtype="float64",
               threads=None) -> dict | None:
        """The tuned config for this problem class, or ``None``.

        Exact ``(m, k, n, dtype, threads)`` probes are served from the
        in-process LRU; misses compute the bucket once and cache the
        verdict either way.
        """
        key = (int(m), int(k), int(n), np.dtype(dtype).name,
               None if threads is None else int(threads))
        with self._lock:
            if key in self._hot:
                self._hot.move_to_end(key)
                self.hot_hits += 1
                return self._hot[key]
            self.hot_misses += 1
            entry = self._entries.get(problem_bucket(*key[:3], key[3], key[4]))
            cfg = dict(entry["config"]) if entry is not None else None
            self._hot[key] = cfg
            while len(self._hot) > self._hot_size:
                self._hot.popitem(last=False)
            return cfg

    def lookup_tuple(self, m: int, k: int, n: int, *, dtype="float64",
                     threads=None) -> tuple | None:
        """Like :meth:`lookup` but as an ``auto_config`` result tuple."""
        cfg = self.lookup(m, k, n, dtype=dtype, threads=threads)
        return None if cfg is None else config_tuple(cfg)

    def record(
        self,
        m: int,
        k: int,
        n: int,
        *,
        config: dict,
        gflops: float,
        time_s: float,
        samples: int,
        dtype="float64",
        threads=None,
        save: bool = True,
    ) -> str:
        """Write one tuned verdict (last write per bucket wins) and persist.

        The stored config is stamped with its canonical schedule
        signature (:func:`config_signature`), so entries are
        self-describing about *which* per-level schedule won the bucket.
        """
        import time as _time

        config = dict(config)
        _validate_config(config)
        config["schedule"] = config_signature(config)
        bucket = problem_bucket(m, k, n, dtype, threads)
        entry = {
            "config": config,
            "gflops": float(gflops),
            "time_s": float(time_s),
            "samples": int(samples),
            "problem": [int(m), int(k), int(n)],
            "dtype": np.dtype(dtype).name,
            "created_utc": _time.strftime("%Y-%m-%dT%H:%M:%SZ", _time.gmtime()),
        }
        with self._lock:
            self._entries[bucket] = entry
            self._hot.clear()
            if save:
                self.save()
        return bucket

    # ------------------------------------------------------------------ #
    # Per-fingerprint runtime tunables
    # ------------------------------------------------------------------ #
    def record_tunables(
        self,
        *,
        fused_group: int | None = None,
        fused_auto_threshold: int | None = None,
        serve_batch_window_us: int | None = None,
        serve_max_batch: int | None = None,
        tile_rows: int | None = None,
        mem_budget_bytes: int | None = None,
        save: bool = True,
    ) -> dict:
        """Persist measured-best runtime tunables for this machine.

        Only the knobs passed non-``None`` are overridden; a call with
        every knob ``None`` clears the section (back to the package
        defaults in :data:`repro.core.spec.TUNABLE_DEFAULTS`).  Returns
        the stored mapping.  The overrides take effect process-wide when
        the store is (or becomes) the default store — see
        :meth:`apply_tunables`.
        """
        requested = {
            "fused_group": fused_group,
            "fused_auto_threshold": fused_auto_threshold,
            "serve_batch_window_us": serve_batch_window_us,
            "serve_max_batch": serve_max_batch,
            "tile_rows": tile_rows,
            "mem_budget_bytes": mem_budget_bytes,
        }
        with self._lock:
            tun = dict(self._tunables)
            if all(v is None for v in requested.values()):
                tun = {}
            for key, value in requested.items():
                if value is not None:
                    tun[key] = int(value)
            _validate_tunables(tun)
            self._tunables = tun
            if save:
                self.save()
        return dict(tun)

    def tunables(self) -> dict:
        """The stored per-fingerprint tunable overrides (may be empty)."""
        with self._lock:
            return dict(self._tunables)

    def apply_tunables(self) -> dict:
        """Install this store's tunable overrides into the running process
        (:func:`repro.core.spec.set_runtime_tunables`); knobs the store
        does not override revert to their package defaults.  Returns the
        effective values.  :func:`default_store` calls this on first
        resolution, so a wisdom file's tunables govern every multiply in
        the process without explicit plumbing.
        """
        from repro.core.spec import set_runtime_tunables

        return set_runtime_tunables(**self.tunables())

    # ------------------------------------------------------------------ #
    # Calibrated machine model
    # ------------------------------------------------------------------ #
    def record_machine(self, params: MachineParams, *, save: bool = True) -> None:
        """Record a back-fit machine model alongside the wisdom entries.

        Persisting is best effort: the record is a quick measurement any
        process can repeat, and it is taken on the ``engine="auto"``
        dispatch path.  When the file cannot be written (a read-only
        directory, a parent path that is a file) a warning is logged and
        the model is kept in memory for this store instead of raising.
        """
        with self._lock:
            self._machine = params
            if save:
                try:
                    self.save()
                except OSError as exc:
                    _log.warning(
                        "could not write the calibrated machine to %s (%s); "
                        "keeping it in memory for this process", self.path, exc,
                    )

    @staticmethod
    def _machine_params_from(doc: dict) -> MachineParams:
        return MachineParams(
            name=str(doc["name"]),
            peak_gflops_per_core=float(doc["peak_gflops_per_core"]),
            bandwidth_gbs=float(doc["bandwidth_gbs"]),
            cores=int(doc["cores"]),
            lam=float(doc["lam"]),
        )

    def machine_params(self) -> MachineParams | None:
        """The calibrated machine model, if one has been back-fit."""
        return self._machine  # one read of an immutable object: no lock

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def entries(self) -> dict[str, dict]:
        with self._lock:
            return {b: dict(e) for b, e in self._entries.items()}

    def clear(self, *, save: bool = True) -> None:
        with self._lock:
            self._entries.clear()
            self._machine = None
            self._tunables = {}
            self._hot.clear()
            if save:
                self.save(merge=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return (f"WisdomStore({str(self.path)!r}, entries={len(self)}, "
                f"machine={'yes' if self._machine else 'no'})")


# ---------------------------------------------------------------------- #
# The process-wide default store
# ---------------------------------------------------------------------- #
_default_lock = threading.Lock()
_default: WisdomStore | None = None


def default_wisdom_path() -> Path:
    """``$REPRO_WISDOM`` if set, else ``~/.cache/repro/wisdom.json``."""
    env = os.environ.get(WISDOM_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "wisdom.json"


def default_store() -> WisdomStore:
    """The lazily-created process-wide store ``engine="auto"`` consults.

    First resolution also installs the store's per-fingerprint tunable
    overrides (:meth:`WisdomStore.apply_tunables`).
    """
    global _default
    with _default_lock:
        if _default is None:
            _default = WisdomStore(default_wisdom_path())
            _default.apply_tunables()
        return _default


def set_default_store(store: WisdomStore | str | Path | None) -> None:
    """Swap the process-wide store (``None`` re-resolves lazily from env).

    The incoming store's tunable overrides are applied immediately;
    ``None`` resets the runtime tunables to the package defaults (the
    next :func:`default_store` call re-resolves and re-applies).
    """
    from repro.core.spec import set_runtime_tunables

    global _default
    with _default_lock:
        if store is None or isinstance(store, WisdomStore):
            _default = store
        else:
            _default = WisdomStore(store)
        if _default is None:
            set_runtime_tunables()
        else:
            _default.apply_tunables()
