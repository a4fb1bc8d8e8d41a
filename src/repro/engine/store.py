"""Persistent engine store + warm in-memory engine pool.

TensorRT's deployment answer to the paper's Findings 2 (builds are
non-deterministic) and 6 (builds are expensive) is *build once, ship
the plan + timing cache, reuse everywhere*.  This module is that
answer as a subsystem:

* :class:`EngineStore` — a content-addressed, on-disk store keyed by
  ``(network digest, device, BuilderConfig fingerprint)``.  Each entry
  holds the serialized ``engine.plan``, its sidecar ``timing.json``
  (the :class:`~repro.engine.timing_cache.TimingCache` that rebuilt it
  deterministically), and a ``meta.json`` commit marker.  Every file
  is written atomically (temp + ``os.replace``), and ``meta.json`` is
  written *last*, so a crashed or concurrent ``put`` can never expose
  a partial entry: readers either see the complete previous
  generation or the complete new one.

* :class:`EnginePool` — an in-memory LRU of deserialized engines with
  a RAM budget derived from the device's
  :class:`~repro.hardware.specs.DeviceSpec`, so repeated serving-path
  lookups skip even the deserialization cost.

A store **hit** is lint-gated (:func:`repro.lint.lint_and_load_plan`:
one read of the plan is both audited and deserialized): a
corrupt or tampered plan is evicted and rebuilt — but the rebuild
reuses the entry's *sidecar timing cache*, so it binds the same
tactics the shipped engine had (the Finding-2 mitigation).  Hits
perform **zero** fresh tactic measurements and report a
``build_time_us`` that is just the cache-probe epsilon per kernel,
orders of magnitude below a cold auction.

Store keys deliberately exclude the build ``seed``: with a warm
sidecar cache the seed does not influence the auction outcome, so two
builds that differ only in seed are the *same* deployable artifact.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.engine.builder import BuilderConfig, EngineBuilder
from repro.engine.engine import Engine
from repro.engine.plan import save_plan
from repro.engine.timing_cache import (
    TIMING_CACHE_LOOKUP_US,
    TimingCache,
    TimingCacheError,
)
from repro.graph.ir import Graph
from repro.hardware.specs import DeviceSpec
from repro.runtime.providers import ProviderSpec, canonical_provider_key
from repro.telemetry.bus import BUS, SpanKind

_STORE_SCHEMA = "trtsim.engine_store/1"

#: Fraction of a device's usable RAM the default pool budget claims.
#: Serving keeps engines resident next to activation buffers, so the
#: pool must not crowd out the per-stream working set (paper Eq. 1).
POOL_RAM_FRACTION = 0.25


# ----------------------------------------------------------------------
# content addressing
# ----------------------------------------------------------------------
def network_digest(graph: Graph) -> str:
    """Stable digest of a network's topology *and* weights.

    Hashes the canonical topology document plus every weight tensor's
    raw bytes — not the ``.npz`` serialization, whose zip container
    embeds timestamps and would break content addressing.
    """
    from repro.graph.serialization import _graph_to_doc

    h = hashlib.sha256()
    h.update(json.dumps(_graph_to_doc(graph), sort_keys=True).encode())
    for layer in graph.layers:
        for key in sorted(layer.weights):
            w = layer.weights[key]
            h.update(
                f"{layer.name}::{key}::{w.dtype.str}::{w.shape}".encode()
            )
            h.update(np.ascontiguousarray(w).tobytes())
    return h.hexdigest()


def config_fingerprint(config: BuilderConfig) -> str:
    """Digest of the :class:`BuilderConfig` fields that change the
    deployable artifact.

    Excluded on purpose: ``seed`` (with a warm sidecar cache the seed
    does not change the auction outcome — that is the whole point of
    the store) and ``timing_cache``/``timing_cache_path`` (the store
    manages the sidecar cache itself).
    """
    doc: Dict[str, Any] = {
        "precision": config.precision.value,
        "timing_noise": config.timing_noise,
        "timing_repeats": config.timing_repeats,
        "enable_horizontal_merge": config.enable_horizontal_merge,
        "input_name": config.input_name,
        "workspace_mb": config.workspace_mb,
        "verify_passes": config.verify_passes,
        # Provider identity is part of the artifact: a TRT plan and a
        # cuda/cpu/partitioned build of the same network must never
        # collide under one content-addressed key.
        "provider": canonical_provider_key(config.provider),
        "calibration": (
            hashlib.sha256(
                np.ascontiguousarray(config.calibration_batch).tobytes()
            ).hexdigest()
            if config.calibration_batch is not None
            else None
        ),
    }
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()
    ).hexdigest()


@dataclass(frozen=True)
class StoreKey:
    """One content-addressed identity: network + device + build config."""

    network: str
    network_digest: str
    device: str
    config_fingerprint: str

    @property
    def digest(self) -> str:
        return hashlib.sha256(
            "\n".join(
                (self.network_digest, self.device, self.config_fingerprint)
            ).encode()
        ).hexdigest()

    def to_dict(self) -> Dict[str, str]:
        return {
            "network": self.network,
            "network_digest": self.network_digest,
            "device": self.device,
            "config_fingerprint": self.config_fingerprint,
        }


def store_key(
    network: Graph, device: DeviceSpec, config: BuilderConfig
) -> StoreKey:
    return StoreKey(
        network=network.name,
        network_digest=network_digest(network),
        device=device.name,
        config_fingerprint=config_fingerprint(config),
    )


@dataclass(frozen=True)
class StoreResult:
    """Outcome of one :meth:`EngineStore.get_or_build`."""

    outcome: str  # "hit" | "pool_hit" | "miss" | "rebuilt"
    key: str  # store key digest
    build_time_us: float
    fresh_measurements: int

    @property
    def is_hit(self) -> bool:
        return self.outcome in ("hit", "pool_hit")


# ----------------------------------------------------------------------
# in-memory pool
# ----------------------------------------------------------------------
class EnginePool:
    """LRU pool of live engines under a RAM budget.

    The budget defaults to :data:`POOL_RAM_FRACTION` of the device's
    RAM; engines are costed at their serialized ``size_bytes`` (the
    resident weight volume dominates both).  An engine larger than the
    whole budget is never admitted — holding it would evict the entire
    working set for one tenant.
    """

    def __init__(
        self,
        budget_bytes: Optional[int] = None,
        device: Optional[DeviceSpec] = None,
    ):
        if budget_bytes is None:
            if device is None:
                raise ValueError(
                    "EnginePool needs budget_bytes or a device to "
                    "derive one from"
                )
            budget_bytes = int(
                device.ram_gb * 1024**3 * POOL_RAM_FRACTION
            )
        if budget_bytes <= 0:
            raise ValueError("pool budget must be positive")
        self.budget_bytes = budget_bytes
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, Engine]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rejected = 0

    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        with self._lock:
            return sum(e.size_bytes for e in self._entries.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: str) -> Optional[Engine]:
        with self._lock:
            return self._get(key)

    def _get(self, key: str) -> Optional[Engine]:
        engine = self._entries.get(key)
        if engine is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        if BUS.active:
            BUS.emit(SpanKind.STORE, key, event="hit", tier="pool")
        return engine

    def put(self, key: str, engine: Engine) -> bool:
        """Admit ``engine``; returns False when it exceeds the budget."""
        with self._lock:
            return self._put_locked(key, engine)

    def _put_locked(self, key: str, engine: Engine) -> bool:
        if engine.size_bytes > self.budget_bytes:
            self.rejected += 1
            return False
        self._entries[key] = engine
        self._entries.move_to_end(key)
        while self.total_bytes > self.budget_bytes:
            evicted_key, _ = self._entries.popitem(last=False)
            self.evictions += 1
            if BUS.active:
                BUS.emit(
                    SpanKind.STORE, evicted_key, event="evict", tier="pool"
                )
        return True

    def evict(self, key: str) -> bool:
        with self._lock:
            return self._evict_locked(key)

    def _evict_locked(self, key: str) -> bool:
        if key in self._entries:
            del self._entries[key]
            self.evictions += 1
            if BUS.active:
                BUS.emit(SpanKind.STORE, key, event="evict", tier="pool")
            return True
        return False

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "engines": len(self._entries),
                "bytes": self.total_bytes,
                "budget_bytes": self.budget_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "rejected": self.rejected,
            }


# ----------------------------------------------------------------------
# on-disk store
# ----------------------------------------------------------------------
@dataclass
class StoreEntry:
    """Metadata of one committed store entry (``meta.json``)."""

    key: StoreKey
    digest: str
    created_s: float
    last_used_s: float
    size_bytes: int
    build_time_us: float
    build_seed: int
    kernels: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": _STORE_SCHEMA,
            "key": self.key.to_dict(),
            "digest": self.digest,
            "created_s": self.created_s,
            "last_used_s": self.last_used_s,
            "size_bytes": self.size_bytes,
            "build_time_us": self.build_time_us,
            "build_seed": self.build_seed,
            "kernels": list(self.kernels),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "StoreEntry":
        key = doc["key"]
        return cls(
            key=StoreKey(
                network=key["network"],
                network_digest=key["network_digest"],
                device=key["device"],
                config_fingerprint=key["config_fingerprint"],
            ),
            digest=doc["digest"],
            created_s=float(doc["created_s"]),
            last_used_s=float(doc["last_used_s"]),
            size_bytes=int(doc["size_bytes"]),
            build_time_us=float(doc["build_time_us"]),
            build_seed=int(doc["build_seed"]),
            kernels=list(doc.get("kernels", [])),
        )


def _write_json_atomic(path: Path, doc: Dict[str, Any]) -> None:
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as f:
            f.write(json.dumps(doc, indent=1, sort_keys=True))
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class EngineStore:
    """Content-addressed on-disk engine store with an optional warm pool.

    Layout on disk (``<root>/<digest[:2]>/<digest>/``)::

        engine.plan   serialized plan (atomic write)
        timing.json   sidecar TimingCache of the build (atomic write)
        meta.json     commit marker + metadata, written LAST

    An entry without ``meta.json`` is an uncommitted torso (crashed
    put) and is treated as a miss; the next put simply replaces its
    files.  Concurrent writers of the same key race benignly: every
    file is replaced atomically and both writers produce a valid,
    equivalent artifact for the same content-addressed key.
    """

    PLAN_NAME = "engine.plan"
    CACHE_NAME = "timing.json"
    META_NAME = "meta.json"

    def __init__(
        self,
        root: Union[str, Path],
        pool: Optional[EnginePool] = None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.pool = pool
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        # RLock: get_or_build holds it across load(), which may evict a
        # corrupt entry, re-entering the lock the thread already holds.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def entry_dir(self, digest: str) -> Path:
        return self.root / digest[:2] / digest

    def plan_path(self, digest: str) -> Path:
        return self.entry_dir(digest) / self.PLAN_NAME

    def cache_path(self, digest: str) -> Path:
        return self.entry_dir(digest) / self.CACHE_NAME

    def meta_path(self, digest: str) -> Path:
        return self.entry_dir(digest) / self.META_NAME

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------
    def _emit(self, digest: str, event: str, tier: str = "disk", **attrs):
        if BUS.active:
            BUS.emit(SpanKind.STORE, digest, event=event, tier=tier, **attrs)

    def _read_meta(self, digest: str) -> Optional[StoreEntry]:
        path = self.meta_path(digest)
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if doc.get("schema") != _STORE_SCHEMA:
            return None
        try:
            return StoreEntry.from_dict(doc)
        except (KeyError, TypeError, ValueError):
            return None

    def _touch(self, entry: StoreEntry) -> None:
        entry.last_used_s = time.time()
        _write_json_atomic(self.meta_path(entry.digest), entry.to_dict())

    def sidecar_cache(
        self, digest: str, device: DeviceSpec
    ) -> Optional[TimingCache]:
        """The entry's shipped timing cache, or None when unusable."""
        path = self.cache_path(digest)
        if not path.exists():
            return None
        try:
            cache = TimingCache.load(path)
            cache.check_device(device)
            return cache
        except (TimingCacheError, ValueError):
            return None

    def load(self, digest: str) -> Optional[Engine]:
        """Lint-gated load of a committed entry; evicts corrupt plans.

        Returns the deserialized engine with its ``build_time_us``
        restated as the *warm* acquisition cost (one cache probe per
        kernel binding) — obtaining an engine from the store never
        pays the cold tactic auction.
        """
        from repro.lint import lint_and_load_plan

        if not self.meta_path(digest).exists():
            return None
        _, engine = lint_and_load_plan(self.plan_path(digest))
        if engine is None:
            # Corrupt/tampered artifact: purge the plan but *keep* the
            # sidecar timing cache so the rebuild binds the same
            # tactics (Finding-2 mitigation).
            self.evict(digest, keep_cache=True)
            return None
        engine.build_time_us = TIMING_CACHE_LOOKUP_US * max(
            1, engine.num_kernels
        )
        return engine

    def get_or_build(
        self,
        network: Graph,
        device: DeviceSpec,
        config: Optional[BuilderConfig] = None,
        provider: Optional[ProviderSpec] = None,
    ) -> Tuple[Engine, StoreResult]:
        """The store's front door: pool -> disk -> (warm) build.

        A disk hit performs zero tactic measurements; a miss builds
        with the entry's sidecar timing cache when one survives (e.g.
        after a corruption eviction), else cold, and commits the new
        artifact atomically.  ``provider`` overlays the config's
        provider axis (name, instance, or priority list) — the store
        key includes it, so every provider mix gets its own entry.
        """
        config = config or BuilderConfig(seed=0)
        if provider is not None:
            config = dataclasses.replace(config, provider=provider)
        key = store_key(network, device, config)
        digest = key.digest
        with self._lock:
            if self.pool is not None:
                pooled = self.pool.get(digest)
                if pooled is not None:
                    self.hits += 1
                    return pooled, StoreResult(
                        outcome="pool_hit",
                        key=digest,
                        build_time_us=pooled.build_time_us,
                        fresh_measurements=0,
                    )
            engine = self.load(digest)
            if engine is not None:
                self.hits += 1
                entry = self._read_meta(digest)
                if entry is not None:
                    self._touch(entry)
                self._emit(digest, "hit", network=network.name)
                if self.pool is not None:
                    self.pool.put(digest, engine)
                return engine, StoreResult(
                    outcome="hit",
                    key=digest,
                    build_time_us=engine.build_time_us,
                    fresh_measurements=0,
                )
            self.misses += 1
            self._emit(digest, "miss", network=network.name)
            engine, cache, fresh = self._build(network, device, config)
            self._put(key, engine, cache)
            outcome = "rebuilt" if fresh == 0 else "miss"
            if self.pool is not None:
                self.pool.put(digest, engine)
            return engine, StoreResult(
                outcome=outcome,
                key=digest,
                build_time_us=engine.build_time_us,
                fresh_measurements=fresh,
            )

    def _build(
        self, network: Graph, device: DeviceSpec, config: BuilderConfig
    ) -> Tuple[Engine, TimingCache, int]:
        """Build through the entry's sidecar cache (warm when it
        survived an eviction, cold otherwise)."""
        key = store_key(network, device, config)
        cache = self.sidecar_cache(key.digest, device)
        if cache is None:
            cache = TimingCache(device_name=device.name)
        build_config = dataclasses.replace(
            config, timing_cache=cache, timing_cache_path=None
        )
        engine = EngineBuilder(device, build_config).build(network)
        # Every cache miss during the build was one fresh measurement
        # run; a fully-warm rebuild finishes with zero.
        return engine, cache, cache.misses

    def _put(
        self, key: StoreKey, engine: Engine, cache: TimingCache
    ) -> None:
        digest = key.digest
        entry_dir = self.entry_dir(digest)
        entry_dir.mkdir(parents=True, exist_ok=True)
        save_plan(engine, self.plan_path(digest))
        cache.save(self.cache_path(digest))
        size = (
            self.plan_path(digest).stat().st_size
            + self.cache_path(digest).stat().st_size
        )
        now = time.time()
        entry = StoreEntry(
            key=key,
            digest=digest,
            created_s=now,
            last_used_s=now,
            size_bytes=size,
            build_time_us=engine.build_time_us,
            build_seed=engine.build_seed,
            kernels=engine.kernel_names(),
        )
        # meta.json last: its presence commits the entry.
        _write_json_atomic(self.meta_path(digest), entry.to_dict())
        self.puts += 1
        self._emit(digest, "put", network=key.network)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def entries(self) -> List[StoreEntry]:
        """Committed entries, most recently used first."""
        found = []
        for meta in sorted(self.root.glob(f"*/*/{self.META_NAME}")):
            entry = self._read_meta(meta.parent.name)
            if entry is not None:
                found.append(entry)
        found.sort(key=lambda e: e.last_used_s, reverse=True)
        return found

    @property
    def total_bytes(self) -> int:
        return sum(e.size_bytes for e in self.entries())

    def evict(self, digest: str, keep_cache: bool = False) -> bool:
        """Remove one entry (optionally preserving its timing cache)."""
        with self._lock:
            entry_dir = self.entry_dir(digest)
            if not entry_dir.exists():
                return False
            if keep_cache:
                for name in (self.PLAN_NAME, self.META_NAME):
                    try:
                        (entry_dir / name).unlink()
                    except OSError:
                        pass
            else:
                shutil.rmtree(entry_dir, ignore_errors=True)
            self.evictions += 1
            self._emit(digest, "evict")
            if self.pool is not None:
                self.pool.evict(digest)
            return True

    def gc(
        self,
        max_bytes: Optional[int] = None,
        max_entries: Optional[int] = None,
    ) -> List[StoreEntry]:
        """Evict least-recently-used entries beyond the given budgets."""
        with self._lock:
            entries = self.entries()  # MRU first
            evicted: List[StoreEntry] = []
            if max_entries is not None:
                while len(entries) > max_entries:
                    victim = entries.pop()  # LRU tail
                    self.evict(victim.digest)
                    evicted.append(victim)
            if max_bytes is not None:
                total = sum(e.size_bytes for e in entries)
                while entries and total > max_bytes:
                    victim = entries.pop()
                    total -= victim.size_bytes
                    self.evict(victim.digest)
                    evicted.append(victim)
            return evicted

    def stats(self) -> Dict[str, Any]:
        """JSON-safe snapshot (the CI artifact's document)."""
        entries = self.entries()
        doc: Dict[str, Any] = {
            "schema": _STORE_SCHEMA,
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(e.size_bytes for e in entries),
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
        }
        if self.pool is not None:
            doc["pool"] = self.pool.stats()
        return doc
