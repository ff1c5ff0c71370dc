"""Namespaced stdlib logging for the ``repro`` package.

Every module logs through ``logging.getLogger("repro.<module>")``, so
one root logger controls the whole stack.  Library rules apply: the
package installs only a ``NullHandler`` (silent by default, no
"no handler" warnings, embedding applications keep full control), and
never configures the root logger.

For ad-hoc debugging the ``REPRO_LOG_LEVEL`` environment variable
attaches a stderr handler at the named level::

    REPRO_LOG_LEVEL=debug python -m repro multiply -m 96 -k 96 -n 96

Events worth the noise budget are logged where they happen: wisdom-file
corruption set-asides (previously silent), plan-cache misses,
worker-pool lifecycle.
"""

from __future__ import annotations

import logging
import os

__all__ = ["ENV_VAR", "configure_logging", "get_logger"]

ENV_VAR = "REPRO_LOG_LEVEL"

_root = logging.getLogger("repro")
_env_handler: logging.Handler | None = None


def get_logger(name: str) -> logging.Logger:
    """The logger for a dotted module path under the ``repro`` namespace."""
    if not name.startswith("repro"):
        name = f"repro.{name}"
    return logging.getLogger(name)


def configure_logging() -> None:
    """Install the NullHandler and honor ``REPRO_LOG_LEVEL`` (idempotent)."""
    global _env_handler
    if not any(isinstance(h, logging.NullHandler) for h in _root.handlers):
        _root.addHandler(logging.NullHandler())

    level_name = os.environ.get(ENV_VAR, "").strip()
    if not level_name or _env_handler is not None:
        return
    level = getattr(logging, level_name.upper(), None)
    if not isinstance(level, int):
        return  # an unknown level name must not break import
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter(
        "%(asctime)s %(name)s %(levelname)s: %(message)s"))
    _root.addHandler(handler)
    _root.setLevel(level)
    _env_handler = handler
