"""Persistent machine calibration: the fit ``engine="auto"`` prices with.

A :class:`WisdomStore` is a small, versioned JSON file holding one
record: the machine model back-fit on this host
(:mod:`repro.tune.tuner`), scoped to a *machine fingerprint*
(:func:`machine_fingerprint`: CPU count, arch, numpy/BLAS, repro
version) so a fit taken on one machine never prices another.  The first
model-path ``engine="auto"`` call on a store without a record measures
the host and records it (:func:`repro.tune.tuner.resolve_machine`);
``repro tune --calibrate`` re-measures.

Robustness contract (the store sits on the ``engine="auto"`` dispatch
path, so it must never take the process down):

* writes are atomic — serialize to a sibling temp file, ``os.replace``;
* loads are schema-validated — a corrupt or alien file, or one of an
  older schema, is set aside as ``<path>.corrupt`` (with a warning on
  the ``repro.tune.wisdom`` logger) and the store degrades to empty (the
  next model-path call calibrates again);
* a fingerprint mismatch ignores the stale record (logged at info);
* the machine record is persisted best effort — an unwritable file logs
  a warning and the model stays in memory for the process;
* every change to the record (a record, load or clear, a new default
  store) calls :func:`repro.core.spec.invalidate_decisions`, so the
  executor's memoized ``engine="auto"`` routes never outlive the
  machine they were priced with.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from functools import lru_cache as _lru_cache
from pathlib import Path

import numpy as np

from repro.core.spec import invalidate_decisions
from repro.model.machines import MachineParams
from repro.obs.logcfg import get_logger

_log = get_logger(__name__)

__all__ = [
    "SCHEMA_VERSION",
    "WisdomStore",
    "machine_fingerprint",
    "fingerprint_digest",
    "default_store",
    "default_wisdom_path",
    "set_default_store",
]

#: Bump when the on-disk layout changes; older files are set aside as
#: ``.corrupt`` and the store starts empty.  Version 2 dropped the
#: ``backend`` and ``workers`` config fields, version 3 the ``threads``
#: config field and the bucket's thread class, and version 4 the
#: measured per-bucket verdicts and the tunables section: a file holds
#: ``version``, ``fingerprint`` and ``machine``.
SCHEMA_VERSION = 4

#: Environment override for the default wisdom location.
WISDOM_ENV = "REPRO_WISDOM"


# ---------------------------------------------------------------------- #
# The machine fingerprint
# ---------------------------------------------------------------------- #
def machine_fingerprint() -> dict:
    """What makes measurements on this host comparable to each other.

    Captures the knobs that move wall-clock: core count, architecture,
    the numpy build (its BLAS dominates classical products), the python
    major.minor and the repro version.  A machine record taken under a
    different fingerprint is ignored at load time.
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


def machine_doc(mp: MachineParams) -> dict:
    """The JSON form of a machine record, as the store file holds it."""
    return {
        "name": mp.name,
        "peak_gflops_per_core": mp.peak_gflops_per_core,
        "bandwidth_gbs": mp.bandwidth_gbs,
        "cores": mp.cores,
        "lam": mp.lam,
    }


# ---------------------------------------------------------------------- #
# The store
# ---------------------------------------------------------------------- #
class WisdomStore:
    """JSON-on-disk home of this host's calibrated machine model.

    Thread-safe; every record persists immediately (best effort).

    Parameters
    ----------
    path : str or Path
        The JSON file backing the store; created on first :meth:`save`.
        Use :func:`default_wisdom_path` for the conventional location.

    Attributes
    ----------
    path : Path
        Backing file location.
    recovered_corrupt : bool
        True when the last :meth:`load` set aside an unreadable file.
    ignored_stale : bool
        True when the file was calibrated under a different machine
        fingerprint and its record was ignored.

    See Also
    --------
    default_store : the process-wide store ``engine="auto"`` consults.

    Examples
    --------
    >>> import tempfile, os
    >>> store = WisdomStore(os.path.join(tempfile.mkdtemp(), "w.json"))
    >>> store.machine_params() is None
    True
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.RLock()
        self._machine: MachineParams | None = None
        self._fingerprint = machine_fingerprint()
        #: Held while the host is measured for this store
        #: (:func:`repro.tune.tuner.resolve_machine`), so concurrent first
        #: calls calibrate once instead of timing each other's probes.
        self.calibration_lock = threading.Lock()
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
        empty; a record taken under a different machine fingerprint is
        ignored, not deleted — it is dropped at the next save.
        """
        with self._lock:
            try:
                self._load()
            finally:
                invalidate_decisions()

    def _load(self) -> None:
        self._machine = None
        self.recovered_corrupt = False
        self.ignored_stale = False
        if not self.path.exists():
            return
        try:
            doc = json.loads(self.path.read_text())
            if not isinstance(doc, dict) or doc.get("version") != SCHEMA_VERSION:
                raise ValueError(f"unsupported wisdom schema in {self.path}")
            machine = doc.get("machine")
            if machine is not None:
                machine = self._machine_params_from(machine)  # validates
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
                "wisdom file %s was calibrated on a different machine "
                "fingerprint; ignoring its record", self.path,
            )
            return
        self._machine = machine

    def _set_aside_corrupt(self) -> None:
        try:
            os.replace(self.path, self.path.with_suffix(self.path.suffix + ".corrupt"))
        except OSError:
            pass

    def save(self) -> Path:
        """Atomically serialize the store (temp file + ``os.replace``)."""
        with self._lock:
            doc = {
                "version": SCHEMA_VERSION,
                "fingerprint": self._fingerprint,
            }
            if self._machine is not None:
                doc["machine"] = machine_doc(self._machine)
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
    # Calibrated machine model
    # ------------------------------------------------------------------ #
    def record_machine(self, params: MachineParams, *, save: bool = True) -> None:
        """Record a back-fit machine model and persist it.

        Persisting is best effort: the record is a quick measurement any
        process can repeat, and it is taken on the ``engine="auto"``
        dispatch path.  When the file cannot be written (a read-only
        directory, a parent path that is a file) a warning is logged and
        the model is kept in memory for this store instead of raising.
        """
        with self._lock:
            self._machine = params
            invalidate_decisions()
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

    def clear(self, *, save: bool = True) -> None:
        """Drop the machine record (the next model-path call re-measures)."""
        with self._lock:
            self._machine = None
            invalidate_decisions()
            if save:
                self.save()

    def __repr__(self) -> str:
        return (f"WisdomStore({str(self.path)!r}, "
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
    """The lazily-created process-wide store ``engine="auto"`` consults."""
    global _default
    with _default_lock:
        if _default is None:
            _default = WisdomStore(default_wisdom_path())
        return _default


def set_default_store(store: WisdomStore | str | Path | None) -> None:
    """Swap the process-wide store (``None`` re-resolves lazily from env)."""
    global _default
    with _default_lock:
        if store is None or isinstance(store, WisdomStore):
            _default = store
        else:
            _default = WisdomStore(store)
        invalidate_decisions()
