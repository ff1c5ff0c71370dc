"""The serving layer: async multiply submission, one job at a time.

Public surface: :class:`MultiplyService` (``submit`` -> job handle;
a job that names no schedule runs ``engine="auto"``'s pick, a classical
one as one BLAS call; one scheduler thread runs the queue first in first
out; byte-budget admission control),
:class:`JobHandle`, and the typed service errors.  The deterministic
test seam lives in :mod:`repro.serve.testing`.
"""

from repro.serve.service import (
    JOB_STATUSES,
    JobCancelledError,
    JobHandle,
    MultiplyService,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    execute_job,
)

__all__ = [
    "JOB_STATUSES",
    "JobCancelledError",
    "JobHandle",
    "MultiplyService",
    "ServiceClosedError",
    "ServiceError",
    "ServiceOverloadedError",
    "execute_job",
]
