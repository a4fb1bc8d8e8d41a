"""Warn-once deprecation plumbing for the redesigned API surface.

Legacy entry points (``profiling.to_chrome_trace`` and
``profiling.save_chrome_trace``) keep working as thin shims, but they
route through :func:`warn_once` so each distinct shim warns exactly once
per process — loud enough to notice, quiet enough not to flood a sweep that
calls the old function ten thousand times.
"""

from __future__ import annotations

import warnings
from typing import Set

_WARNED: Set[str] = set()


def warn_once(key: str, message: str) -> None:
    """Emit ``DeprecationWarning`` the first time ``key`` is seen."""
    if key in _WARNED:
        return
    _WARNED.add(key)
    warnings.warn(message, DeprecationWarning, stacklevel=3)


def reset_warnings() -> None:
    """Forget which keys have warned (test helper)."""
    _WARNED.clear()
