"""repro.tune — the machine calibration ``engine="auto"`` prices with.

The selector ranks the generated family with the paper's §4.4
performance model; this layer gives that model this host's constants.
:mod:`repro.tune.tuner` measures the host and back-fits a
:class:`~repro.model.machines.MachineParams`, and
:mod:`repro.tune.wisdom` persists the fit in a machine-fingerprinted
JSON store, so the first model-path ``multiply(engine="auto")`` call per
store pays the probe and every later one, in any process sharing the
store, reads the record.  ``repro tune --calibrate`` re-measures and
``repro wisdom`` inspects or clears the store from the shell.
"""

from repro.tune.tuner import calibrate_machine, fit_machine_params
from repro.tune.wisdom import (
    SCHEMA_VERSION,
    WisdomStore,
    default_store,
    default_wisdom_path,
    fingerprint_digest,
    machine_fingerprint,
    set_default_store,
)

__all__ = [
    "WisdomStore",
    "SCHEMA_VERSION",
    "machine_fingerprint",
    "fingerprint_digest",
    "default_store",
    "default_wisdom_path",
    "set_default_store",
    "calibrate_machine",
    "fit_machine_params",
]
