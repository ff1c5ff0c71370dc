"""Runtime observability: span tracing, metrics, and report history.

Three cooperating layers, each usable alone:

* :mod:`repro.obs.trace` — a near-zero-overhead span tracer over the
  execution stack (compile, runtime phases, arena), exportable as
  Chrome trace-event JSON.
* :mod:`repro.obs.metrics` — a process-wide counter/gauge/histogram
  registry absorbing the core's scattered stat surfaces behind one
  ``snapshot()``.
* :mod:`repro.obs.reports` — a bounded ExecutionReport history with
  per-plan aggregation.

CLI: ``repro trace run ... -o trace.json`` and ``repro stats [--json]``.
"""

from repro.obs import metrics, reports, trace
from repro.obs.logcfg import configure_logging, get_logger
from repro.obs.metrics import registry
from repro.obs.reports import history
from repro.obs.trace import export_chrome, span

configure_logging()

__all__ = [
    "configure_logging",
    "export_chrome",
    "get_logger",
    "history",
    "metrics",
    "registry",
    "reports",
    "span",
    "trace",
]
