"""One simulated fleet node: a Device wrapping per-model supervisors.

A :class:`FleetDevice` is the unit of failure the fleet layer routes
around.  It owns one :class:`~repro.serving.supervisor
.InferenceSupervisor` per installed model (the single-node resilience
stack of PR 2 keeps working *inside* the node), a GPU queue
(``busy_until_ms`` — batches serialize exactly like the supervisor's
frame loop), and a fault timeline of :class:`~repro.serving.fleet
.faults.DeviceFaultWindow` outages.

Service times are the supervisor's own noiseless model times scaled by
the active brownout factor plus seeded measurement jitter, so a fleet
of thousands of requests stays fast *and* agrees with what the
single-node stack would have measured request by request.

Warm failover: when a crash/reboot window closes, a device with a
shared :class:`~repro.engine.store.EngineStore` re-acquires every
model's **entire fallback ladder** through
:meth:`InferenceSupervisor.from_store` — all store hits, zero tactic
auctions — and is back in rotation after ``REBOOT_BASE_MS`` plus the
warm acquisition cost.  Without the store the node rebuilds cold and
the outage stretches by ``COLD_REBUILD_MS_PER_SEV`` per engine per
severity step (paper Finding 6: builds are expensive).
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.caching import caching_enabled, register_cache

from repro.engine.engine import Engine
from repro.faults.events import FaultKind
from repro.hardware.specs import DeviceSpec
from repro.serving.fleet.faults import (
    COLD_REBUILD_MS_PER_SEV,
    REBOOT_BASE_MS,
    DeviceFaultWindow,
)
from repro.serving.fleet.health import (
    PROBE_OK,
    PROBE_REFUSED,
    PROBE_TIMEOUT,
)
from repro.serving.supervisor import InferenceSupervisor
from repro.telemetry.bus import BUS, SpanKind

#: Modeled cost of pulling a model the device is not warm for from the
#: shared store on the request path (deserialize + context setup).
COLD_MODEL_LOAD_MS = 25.0


#: Requests per batched noise draw: one Generator construction covers
#: this many consecutive request ids instead of one.
_NOISE_BLOCK = 256


@lru_cache(maxsize=4096)
def _service_noise_block(seed: int, block: int) -> Tuple[float, ...]:
    """One batched jitter draw covering ``_NOISE_BLOCK`` consecutive
    request ids, as Python floats.

    The per-request scheme built a fresh ``Generator`` per (device,
    request) pair — PCG64 seeding dominated the fleet hot loop.  A
    block draw amortizes that 256x while staying a pure function of the
    key: request ``rid`` always reads slot ``rid % _NOISE_BLOCK`` of
    block ``rid // _NOISE_BLOCK`` whether or not the memo is enabled,
    so replayed request ids see bit-identical noise either way.  The
    block is converted once, so a read is a tuple index rather than a
    numpy scalar conversion."""
    rng = np.random.default_rng((seed, 0xD0, block))
    return tuple(rng.uniform(-1.0, 1.0, _NOISE_BLOCK).tolist())


register_cache(_service_noise_block.cache_clear)


def _service_noise(seed: int, rid: int) -> float:
    block = rid // _NOISE_BLOCK
    if caching_enabled():
        draws = _service_noise_block(seed, block)
    else:
        draws = _service_noise_block.__wrapped__(seed, block)
    return draws[rid % _NOISE_BLOCK]


class DeviceStatus(enum.Enum):
    ONLINE = "online"
    CRASHED = "crashed"
    REBOOTING = "rebooting"


#: Window kinds that take the node down (and trigger a restore).
_OUTAGE_KINDS = (FaultKind.DEVICE_CRASH, FaultKind.DEVICE_REBOOT)


@dataclass
class ModelServing:
    """One installed model on one device."""

    model: str
    #: Content-address of the network (the EngineStore key component
    #: shared across devices) — what engine-affinity routing hashes.
    affinity_key: str
    supervisor: InferenceSupervisor
    #: Noiseless service time per ladder level (level 0 = primary).
    base_ms: List[float] = field(default_factory=list)


@dataclass(frozen=True)
class RestoreResult:
    """Outcome of one post-outage ladder restore."""

    device: str
    t_ms: float
    warm: bool
    engines: int
    restore_ms: float


def _ladder_base_ms(
    supervisor: InferenceSupervisor,
    spec: DeviceSpec,
    clock_mhz: Optional[float] = None,
) -> List[float]:
    """Noiseless per-level service time of a supervisor's ladder.

    Reuses the supervisor's own execution contexts instead of creating
    a throwaway context per engine: each context carries the timeline
    skeleton cache, so installs and warm restores at the same clock
    re-read the cached skeleton rather than re-deriving every kernel
    cost.
    """
    out = []
    for context in supervisor.ladder_contexts():
        out.append(
            context.time_inference(
                clock_mhz=clock_mhz,
                include_engine_upload=False,
                jitter=0.0,
            ).total_ms
        )
    return out


class FleetDevice:
    """A simulated node: supervisors + queue + fault timeline."""

    #: ``install`` calls on all devices so far; a router lists each
    #: model's serving devices again when this moves.  Class-wide, so
    #: one comparison per request covers every device; an install in
    #: another fleet costs a router only a re-listing.
    installs = 0

    def __init__(
        self,
        name: str,
        spec: DeviceSpec,
        store: Any = None,
        seed: int = 0,
        jitter: float = 0.05,
        clock_mhz: Optional[float] = None,
    ):
        self.name = name
        self.spec = spec
        self.store = store
        self.seed = seed
        self.jitter = jitter
        #: Pinned DVFS rung; ``None`` serves at the spec's max clock.
        self.clock_mhz = clock_mhz
        self._models: Dict[str, ModelServing] = {}
        self._warm: Dict[str, bool] = {}
        #: Per-model co-location slowdown factors (>= 1.0) from the
        #: interference model — how much sharing this GPU with the
        #: other resident models stretches each model's service time.
        #: Empty (the default) leaves service times bit-identical to a
        #: colocation-unaware fleet.
        self._coloc_factors: Dict[str, float] = {}
        #: (network, fallback_networks, builder_config) per model — what
        #: a from_store restore needs to re-acquire the ladder.
        self._sources: Dict[str, Tuple[Any, Sequence[Any], Any]] = {}
        self.busy_until_ms = 0.0
        #: Fleet-wide precision drop (degradation ladder stage 2+):
        #: every model serves at ladder level >= this bias.
        self.level_bias = 0
        self._windows: List[DeviceFaultWindow] = []
        #: [start, end) intervals the node is not serving, including
        #: post-outage restore time; computed by plan_outages().
        self._downtime: List[Tuple[float, float]] = []
        self.restores: List[RestoreResult] = []
        self.cold_loads = 0
        self._compile_timeline()

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(
        self,
        model: str,
        network: Any,
        fallback_networks: Sequence[Any] = (),
        builder_config: Any = None,
        engine: Optional[Engine] = None,
        fallback_engines: Sequence[Engine] = (),
        warm: bool = True,
    ) -> ModelServing:
        """Install ``model``'s ladder on this node.

        With a ``store``, the ladder routes through
        ``InferenceSupervisor.from_store`` (the deployment posture);
        pre-built ``engine``/``fallback_engines`` skip the store (unit
        tests, store-less baselines).
        """
        from repro.engine.store import network_digest

        if engine is not None:
            supervisor = InferenceSupervisor(
                engine,
                fallbacks=list(fallback_engines),
                device=self.spec,
                seed=self.seed,
            )
        elif self.store is not None:
            supervisor = InferenceSupervisor.from_store(
                self.store,
                network,
                device=self.spec,
                fallback_networks=fallback_networks,
                builder_config=builder_config,
                seed=self.seed,
            )
        else:
            from repro.engine.builder import BuilderConfig, EngineBuilder

            config = builder_config or BuilderConfig(seed=0)
            builder = EngineBuilder(self.spec, config)
            supervisor = InferenceSupervisor(
                builder.build(network),
                fallbacks=[
                    EngineBuilder(self.spec, config).build(fb)
                    for fb in fallback_networks
                ],
                device=self.spec,
                seed=self.seed,
            )
        serving = ModelServing(
            model=model,
            affinity_key=network_digest(network) if network is not None
            else model,
            supervisor=supervisor,
            base_ms=_ladder_base_ms(
                supervisor, self.spec, self.clock_mhz
            ),
        )
        self._models[model] = serving
        self._warm[model] = warm
        self._sources[model] = (network, tuple(fallback_networks),
                                builder_config)
        FleetDevice.installs += 1
        return serving

    def models(self) -> List[str]:
        return sorted(self._models)

    def serving(self, model: str) -> ModelServing:
        return self._models[model]

    def has_model(self, model: str) -> bool:
        return model in self._models

    def is_warm(self, model: str) -> bool:
        return self._warm.get(model, False)

    def affinity_key(self, model: str) -> str:
        return self._models[model].affinity_key

    def set_colocation(self, factors: Dict[str, float]) -> None:
        """Attach per-model co-location slowdown factors.

        ``factors[model]`` (>= 1.0) multiplies ``model``'s service
        time, pricing the DRAM/SM interference from the other models
        resident on this GPU (see
        :func:`repro.analysis.interference.placement_factors`).
        Models absent from ``factors`` serve at 1.0.
        """
        for model, factor in factors.items():
            if factor < 1.0:
                raise ValueError(
                    f"colocation factor for {model!r} must be >= 1.0,"
                    f" got {factor}"
                )
        self._coloc_factors = dict(factors)

    # ------------------------------------------------------------------
    # fault timeline
    # ------------------------------------------------------------------
    def plan_outages(
        self,
        windows: Sequence[DeviceFaultWindow],
        warm_failover: bool = True,
    ) -> None:
        """Attach this device's fault windows and derive its downtime.

        Crash/reboot windows extend past their end by the restore
        cost: warm (shared store available and failover enabled) or
        cold (full rebuild).  Partition/brownout windows do not add
        downtime — the node keeps serving (unreachably or slowly).
        """
        self._windows = [w for w in windows if w.device == self.name]
        self._downtime = []
        for w in self._windows:
            if w.kind not in _OUTAGE_KINDS:
                continue
            warm = warm_failover and self.store is not None
            restore_ms = self._restore_cost_ms(w, warm)
            self._downtime.append((w.start_ms, w.end_ms + restore_ms))
            self.restores.append(
                RestoreResult(
                    device=self.name,
                    t_ms=w.end_ms,
                    warm=warm,
                    engines=sum(
                        len(m.supervisor.engines)
                        for m in self._models.values()
                    ),
                    restore_ms=restore_ms,
                )
            )
        self._downtime.sort()
        self._compile_timeline()

    def _compile_timeline(self) -> None:
        """Tabulate the state queries over the fault timeline.

        Every query depends on ``t`` only through containments
        ``start <= t < end`` in the windows and downtime intervals, so
        its answer is constant from one distinct interval edge up to the
        next.  The table holds the answer at each edge, evaluated by the
        definitions below, and a query is one ``bisect`` into the edges
        (a device without windows has no edges and one segment):

        * ``status``: the first downtime interval, in sorted order, that
          contains ``t`` decides; the node is CRASHED while a crash or
          reboot window starting where that interval starts is active,
          and REBOOTING for the rest of the interval;
        * ``partitioned``: any partition window is active;
        * ``brownout_factor``: the active brownout windows' factors,
          multiplied in window order;
        * ``probe``: TIMEOUT if partitioned, else REFUSED unless ONLINE.
        """
        windows = self._windows
        downtime = self._downtime
        self._edges = sorted(
            {w.start_ms for w in windows}
            | {w.end_ms for w in windows}
            | {start for start, _ in downtime}
            | {end for _, end in downtime}
        )
        status = [DeviceStatus.ONLINE]
        partitioned = [False]
        factor = [1.0]
        for t in self._edges:
            state = DeviceStatus.ONLINE
            for start, end in downtime:
                if start <= t < end:
                    crashed = any(
                        w.kind in _OUTAGE_KINDS
                        and w.start_ms == start
                        and w.active_at(t)
                        for w in windows
                    )
                    state = (
                        DeviceStatus.CRASHED if crashed
                        else DeviceStatus.REBOOTING
                    )
                    break
            status.append(state)
            partitioned.append(any(
                w.kind is FaultKind.NETWORK_PARTITION and w.active_at(t)
                for w in windows
            ))
            slowdown = 1.0
            for w in windows:
                if (
                    w.kind is FaultKind.THERMAL_BROWNOUT
                    and w.active_at(t)
                ):
                    slowdown *= w.brownout_factor()
            factor.append(slowdown)
        self._status_at = status
        self._partitioned_at = partitioned
        self._factor_at = factor
        self._probe_at = [
            PROBE_TIMEOUT if cut
            else PROBE_OK if state is DeviceStatus.ONLINE
            else PROBE_REFUSED
            for state, cut in zip(status, partitioned)
        ]
        #: Downtime starts in sorted order (duplicates kept).
        self._down_starts = [start for start, _ in downtime]

    def _restore_cost_ms(
        self, window: DeviceFaultWindow, warm: bool
    ) -> float:
        """Time to bring the ladder back after ``window`` closes."""
        if warm:
            # Re-acquire every ladder from the shared store: all hits,
            # priced at the warm build_time_us the store restates.
            acquired_us = 0.0
            for model, (network, fallbacks, config) in sorted(
                self._sources.items()
            ):
                if network is None:
                    continue
                supervisor = InferenceSupervisor.from_store(
                    self.store,
                    network,
                    device=self.spec,
                    fallback_networks=fallbacks,
                    builder_config=config,
                    seed=self.seed,
                )
                self._models[model].supervisor = supervisor
                self._models[model].base_ms = _ladder_base_ms(
                    supervisor, self.spec, self.clock_mhz
                )
                acquired_us += sum(
                    e.build_time_us for e in supervisor.engines
                )
            return REBOOT_BASE_MS + acquired_us / 1e3
        engines = sum(
            len(m.supervisor.engines) for m in self._models.values()
        )
        cold_ms = COLD_REBUILD_MS_PER_SEV * window.severity * max(
            1, engines
        )
        return REBOOT_BASE_MS + cold_ms

    # ------------------------------------------------------------------
    # state queries
    # ------------------------------------------------------------------
    def status(self, t_ms: float) -> DeviceStatus:
        """Down through a crash/reboot window, rebooting afterwards."""
        return self._status_at[bisect_right(self._edges, t_ms)]

    def next_downtime_edge(self, t_ms: float) -> Optional[float]:
        """The next downtime start strictly after ``t_ms``, if any."""
        starts = self._down_starts
        i = bisect_right(starts, t_ms)
        return starts[i] if i < len(starts) else None

    def partitioned(self, t_ms: float) -> bool:
        return self._partitioned_at[bisect_right(self._edges, t_ms)]

    def brownout_factor(self, t_ms: float) -> float:
        return self._factor_at[bisect_right(self._edges, t_ms)]

    def probe(self, t_ms: float) -> str:
        """Heartbeat outcome: the health checker's raw signal."""
        return self._probe_at[bisect_right(self._edges, t_ms)]

    def device_seconds(self, duration_ms: float) -> float:
        """Powered-and-serving seconds over a run of ``duration_ms``
        (the fleet's cost denominator)."""
        down = 0.0
        for start, end in self._downtime:
            down += max(
                0.0, min(end, duration_ms) - min(start, duration_ms)
            )
        return max(0.0, duration_ms - down) / 1000.0

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def effective_base_ms(self, model: str, level: int = 0) -> float:
        """Noiseless service time including the co-location factor —
        what capacity planning must divide by."""
        base = self._models[model].base_ms[level]
        return base * self._coloc_factors.get(model, 1.0)

    def service_ms(self, model: str, rid: int, t_ms: float) -> float:
        """Deterministic service time for request ``rid`` at ``t_ms``."""
        serving = self._models[model]
        level = min(self.level_bias, len(serving.base_ms) - 1)
        base = serving.base_ms[level]
        coloc = self._coloc_factors.get(model)
        if coloc is not None:
            base = base * coloc
        noise = 1.0 + self.jitter * _service_noise(self.seed, rid)
        extra = 0.0
        if not self._warm.get(model, False):
            self._warm[model] = True
            self.cold_loads += 1
            extra = COLD_MODEL_LOAD_MS
        brownout = self._factor_at[bisect_right(self._edges, t_ms)]
        return base * brownout * noise + extra

    def execute(
        self, model: str, rid: int, dispatch_ms: float
    ) -> Tuple[float, float]:
        """Queue + run one request; returns (start_ms, completion_ms).

        The GPU serializes: execution starts when the queue drains.
        Callers must have checked reachability/liveness; a crash edge
        *during* execution is the router's in-flight-loss case and is
        detected by comparing completion against downtime starts.
        """
        start = max(dispatch_ms, self.busy_until_ms)
        completion = start + self.service_ms(model, rid, start)
        self.busy_until_ms = completion
        return start, completion

    def cancel_after(self, t_ms: float) -> None:
        """Release queued work past ``t_ms`` (hedge cancellation)."""
        if self.busy_until_ms > t_ms:
            self.busy_until_ms = t_ms

    # ------------------------------------------------------------------
    def emit_restores(self) -> None:
        """Publish FLEET_FAILOVER spans for every planned restore."""
        if not BUS.active:
            return
        for r in self.restores:
            BUS.emit(
                SpanKind.FLEET_FAILOVER,
                self.name,
                device=self.name,
                t_ms=r.t_ms,
                warm=r.warm,
                engines=r.engines,
                restore_ms=r.restore_ms,
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "spec": self.spec.name,
            "models": self.models(),
            "cold_loads": self.cold_loads,
            "restores": [
                {
                    "t_ms": r.t_ms,
                    "warm": r.warm,
                    "engines": r.engines,
                    "restore_ms": r.restore_ms,
                }
                for r in self.restores
            ],
        }
