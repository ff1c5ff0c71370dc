"""The serving layer: async multiply submission with coalescing.

Public surface: :class:`MultiplyService` (``submit`` -> job handle;
a job that names no schedule runs ``engine="auto"``'s pick, a classical
one as its own BLAS call; same-plan FMM jobs coalesce; byte-budget
admission control),
:class:`JobHandle`, and the typed service errors.  The deterministic
test seams live in :mod:`repro.serve.testing`.
"""

from repro.serve.service import (
    JOB_STATUSES,
    JobCancelledError,
    JobHandle,
    MonotonicClock,
    MultiplyService,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    execute_batch,
)

__all__ = [
    "JOB_STATUSES",
    "JobCancelledError",
    "JobHandle",
    "MonotonicClock",
    "MultiplyService",
    "ServiceClosedError",
    "ServiceError",
    "ServiceOverloadedError",
    "execute_batch",
]
