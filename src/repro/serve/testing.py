"""Deterministic test seam for :class:`repro.serve.MultiplyService`.

The service takes its job executor as a constructor parameter; this
module supplies the test double:

* :class:`FaultInjectingExecutor` — wraps the default job executor with
  a command queue: per job it can run normally, raise a chosen exception
  into the job, or block ("deadlock") until the test releases a gate —
  which is how cancellation races and queue-full states are set up
  deterministically (hold the scheduler in job #1, arrange the queue,
  then release).

Nothing here is imported by the service itself.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.serve.service import execute_job

__all__ = ["FaultInjectingExecutor"]


class FaultInjectingExecutor:
    """A programmable job executor for fault and race testing.

    Commands queue up via :meth:`push_ok` / :meth:`push_raise` /
    :meth:`push_block`; each arriving job consumes one (default: run
    normally).  Every call is recorded in :attr:`calls` as the id of the
    job it carried, in execution order — ordering assertions read it
    directly.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._commands: deque = deque()
        self.calls: list[str] = []

    def push_ok(self, n: int = 1) -> None:
        """Let the next ``n`` jobs execute normally."""
        with self._lock:
            for _ in range(n):
                self._commands.append(("ok", None))

    def push_raise(self, exc: BaseException) -> None:
        """Make the next job raise ``exc`` instead of executing."""
        with self._lock:
            self._commands.append(("raise", exc))

    def push_block(self, gate: threading.Event | None = None) -> threading.Event:
        """Make the next job block until the returned gate is set.

        The job executes normally once released — the scheduler is
        effectively frozen mid-job, which is the window in which
        cancellation races and queue pile-ups are staged.
        """
        gate = gate or threading.Event()
        with self._lock:
            self._commands.append(("block", gate))
        return gate

    def __call__(self, job):
        with self._lock:
            self.calls.append(job.id)
            cmd, arg = (self._commands.popleft() if self._commands
                        else ("ok", None))
        if cmd == "block":
            arg.wait()
        elif cmd == "raise":
            raise arg
        return execute_job(job)
