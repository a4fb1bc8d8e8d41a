"""Process-wide control for the pure-function memo caches.

The numeric and timing hot paths memoize derived values that are pure
functions of hashable inputs — depthwise/average-pooling window gather
and deconvolution scatter indices keyed by layer shape
(:mod:`repro.runtime.ops`; im2col and max pooling copy strided kernel
taps and need no index), per-layer workloads keyed by a layer digest
(:mod:`repro.hardware.workload`), and the cost model's kernel
columns keyed by (device, candidate list) and per-engine cost tables
keyed by (device, bindings) (:mod:`repro.hardware.cost`).
Purity is the whole argument: a cache hit returns exactly the value
the uncached computation would produce, so caching can never change a
result byte.  The acceptance tests in
``tests/test_cache_identity.py`` assert that equivalence end to end by
running the same graphs with caching on and off.

This module is the single switch those tests (and anyone debugging a
suspected cache bug) use:

* :func:`caching_enabled` — consulted by every memoized site; when
  ``False`` the site computes from scratch.
* :func:`disable_caches` / :func:`enable_caches` — global toggle.
* :func:`clear_caches` — drop every registered cache's contents.
* :func:`caches_disabled` — context manager that disables *and clears*
  for the duration (clearing on entry and exit so a later cached run
  repopulates from scratch).

Memoizing modules register their ``cache_clear`` callbacks at import
time via :func:`register_cache`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator, List


class _CacheControl:
    """Mutable switch + registry; all writes go through ``_lock``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._enabled = True
        self._clearers: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    def is_enabled(self) -> bool:
        return self._enabled

    def set_enabled(self, value: bool) -> None:
        with self._lock:
            self._enabled = bool(value)

    def register(self, clearer: Callable[[], None]) -> None:
        with self._lock:
            self._clearers.append(clearer)

    def clear_all(self) -> None:
        with self._lock:
            clearers = list(self._clearers)
        for clearer in clearers:
            clearer()


_CONTROL = _CacheControl()


def caching_enabled() -> bool:
    """Whether the memo caches are consulted (the default)."""
    return _CONTROL.is_enabled()


def enable_caches() -> None:
    """Re-enable the memo caches after :func:`disable_caches`."""
    _CONTROL.set_enabled(True)


def disable_caches() -> None:
    """Make every memoized site compute from scratch (for byte-identity
    testing and debugging; the cached path is the supported one)."""
    _CONTROL.set_enabled(False)


def clear_caches() -> None:
    """Drop the contents of every registered cache."""
    _CONTROL.clear_all()


def register_cache(clearer: Callable[[], None]) -> None:
    """Register a ``cache_clear``-style callback with the global
    registry so :func:`clear_caches` can reach it."""
    _CONTROL.register(clearer)


@contextmanager
def caches_disabled() -> Iterator[None]:
    """Run a block with caching off and caches cleared on both ends."""
    was_enabled = caching_enabled()
    clear_caches()
    disable_caches()
    try:
        yield
    finally:
        _CONTROL.set_enabled(was_enabled)
        clear_caches()
