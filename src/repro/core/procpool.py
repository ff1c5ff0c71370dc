"""Compatibility shim: the worker-process runtime has been removed.

The perf ledger (``benchmarks/ledger/workloads.py``) still imports
:func:`shutdown_process_pools` when a workload child exits.
"""

__all__ = ["shutdown_process_pools"]


def shutdown_process_pools() -> None:
    """No-op; kept because the perf ledger calls it."""
