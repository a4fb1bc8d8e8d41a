"""The scan-based fleet hot path, kept as the oracle.

These are the fleet's per-request paths as they were before fault
timelines were compiled and routing was made allocation-light, with the
half-open probe fixes applied (candidates are filtered with
``CircuitBreaker.admits``; ``allow`` takes the probe only for the
device a copy is sent to; a cancelled hedge loser gives its probe slot
back with ``release_probe``).  They are subclasses of the live classes,
so one reference :class:`ReferenceFleetSimulator` run uses the old code
for everything that moved:

* device state queries scan the fault windows on every call;
* the router lists candidates over every device and asks every health
  view and breaker, builds frozen-dataclass records, and
  ``LeastLoadedPolicy`` sorts with a key function;
* service noise reads a numpy block per request;
* the traffic generator draws one scalar per model and priority choice.

Breakers, health checking, the degradation governor, fault windows and
the report are shared with the live code.  :func:`reference_classes`
swaps the reference classes into :mod:`repro.analysis.fleet`, so whole
experiments (``compare_resilience``, ``compare_placement``) can be
replayed on the reference.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.caching import caching_enabled, register_cache
from repro.faults.events import FaultKind
from repro.serving.fleet.device import (
    COLD_MODEL_LOAD_MS,
    DeviceStatus,
    FleetDevice,
)
from repro.serving.fleet.health import (
    PROBE_OK,
    PROBE_REFUSED,
    PROBE_TIMEOUT,
)
from repro.serving.fleet.router import (
    FleetRouter,
    LeastLoadedPolicy,
    RoutingPolicy,
    make_policy,
)
from repro.serving.fleet.simulator import FleetReport, FleetSimulator
from repro.serving.fleet.traffic import SLOT_MS, FleetRequest, TrafficModel
from repro.telemetry.bus import BUS, SpanKind

_NOISE_BLOCK = 256


@lru_cache(maxsize=4096)
def _service_noise_block(seed: int, block: int) -> np.ndarray:
    rng = np.random.default_rng((seed, 0xD0, block))
    draws = rng.uniform(-1.0, 1.0, _NOISE_BLOCK)
    draws.setflags(write=False)
    return draws


register_cache(_service_noise_block.cache_clear)


def _service_noise(seed: int, rid: int) -> float:
    if caching_enabled():
        block = _service_noise_block(seed, rid // _NOISE_BLOCK)
    else:
        block = _service_noise_block.__wrapped__(
            seed, rid // _NOISE_BLOCK
        )
    return float(block[rid % _NOISE_BLOCK])


# ----------------------------------------------------------------------
# device
# ----------------------------------------------------------------------
class ReferenceFleetDevice(FleetDevice):
    """State queries by scanning the fault windows on every call."""

    def status(self, t_ms: float) -> DeviceStatus:
        for start, end in self._downtime:
            if start <= t_ms < end:
                # Down through the fault window, rebooting afterwards.
                for w in self._windows:
                    if (
                        w.kind in (FaultKind.DEVICE_CRASH,
                                   FaultKind.DEVICE_REBOOT)
                        and w.start_ms == start
                        and w.active_at(t_ms)
                    ):
                        return DeviceStatus.CRASHED
                return DeviceStatus.REBOOTING
        return DeviceStatus.ONLINE

    def next_downtime_edge(self, t_ms: float) -> Optional[float]:
        edges = [s for s, _ in self._downtime if s > t_ms]
        return min(edges) if edges else None

    def partitioned(self, t_ms: float) -> bool:
        return any(
            w.kind is FaultKind.NETWORK_PARTITION and w.active_at(t_ms)
            for w in self._windows
        )

    def brownout_factor(self, t_ms: float) -> float:
        factor = 1.0
        for w in self._windows:
            if (
                w.kind is FaultKind.THERMAL_BROWNOUT
                and w.active_at(t_ms)
            ):
                factor *= w.brownout_factor()
        return factor

    def probe(self, t_ms: float) -> str:
        if self.partitioned(t_ms):
            return PROBE_TIMEOUT
        if self.status(t_ms) is not DeviceStatus.ONLINE:
            return PROBE_REFUSED
        return PROBE_OK

    def service_ms(self, model: str, rid: int, t_ms: float) -> float:
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
        return base * self.brownout_factor(t_ms) * noise + extra


# ----------------------------------------------------------------------
# router
# ----------------------------------------------------------------------
class ReferenceLeastLoadedPolicy(LeastLoadedPolicy):
    def rank(
        self,
        candidates: List[FleetDevice],
        request: FleetRequest,
        now_ms: float,
    ) -> List[FleetDevice]:
        return sorted(
            candidates,
            key=lambda d: (max(0.0, d.busy_until_ms - now_ms), d.name),
        )


def reference_policy(name: str) -> RoutingPolicy:
    """``make_policy`` with the reference least-loaded ranking."""
    if name == "least-loaded":
        return ReferenceLeastLoadedPolicy()
    return make_policy(name)


@dataclass(frozen=True)
class ReferenceDispatchOutcome:
    rid: int
    model: str
    priority: int
    ok: bool
    shed: bool
    device: str
    t_ms: float
    completion_ms: float
    latency_ms: float
    deadline_met: bool
    dispatches: int
    failures: int
    hedged: bool
    hedge_cancelled: bool
    cause: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rid": self.rid,
            "model": self.model,
            "priority": self.priority,
            "ok": self.ok,
            "shed": self.shed,
            "device": self.device,
            "t_ms": self.t_ms,
            "completion_ms": self.completion_ms,
            "latency_ms": self.latency_ms,
            "deadline_met": self.deadline_met,
            "dispatches": self.dispatches,
            "failures": self.failures,
            "hedged": self.hedged,
            "hedge_cancelled": self.hedge_cancelled,
            "cause": self.cause,
        }


@dataclass
class _Attempt:
    device: str
    ok: bool
    done_ms: float
    cause: str = ""
    start_ms: float = 0.0


class ReferenceFleetRouter(FleetRouter):
    """Candidates over every device, every health view and breaker
    asked, on every request."""

    def _candidates(
        self, request: FleetRequest, now_ms: float
    ) -> List[FleetDevice]:
        devices = [
            d for d in self.devices if d.has_model(request.model)
        ]
        if not self.config.resilient:
            return devices
        return [
            d
            for d in devices
            if self.health.alive(d.name)
            and self.breakers[d.name].admits(now_ms)
        ]

    def _take_probe(self, device: FleetDevice, now_ms: float) -> None:
        if self.config.resilient:
            self.breakers[device.name].allow(now_ms)

    def _try_dispatch(
        self, device: FleetDevice, request: FleetRequest, now_ms: float
    ) -> _Attempt:
        c = self.config
        if device.partitioned(now_ms):
            return _Attempt(
                device.name, False, now_ms + c.rpc_timeout_ms,
                "partition",
            )
        if device.status(now_ms) is not DeviceStatus.ONLINE:
            return _Attempt(device.name, False, now_ms, "crash")
        start, completion = device.execute(
            request.model, request.rid, now_ms
        )
        edge = device.next_downtime_edge(now_ms)
        if edge is not None and edge < completion:
            device.cancel_after(edge)
            return _Attempt(
                device.name, False, max(now_ms, edge), "crash"
            )
        return _Attempt(
            device.name, True, completion, start_ms=start
        )

    def _record(
        self, device: str, ok: bool, done_ms: float,
        latency_ms: float,
    ) -> None:
        if not self.config.resilient:
            return
        breaker = self.breakers[device]
        if ok:
            breaker.record_success(done_ms)
        else:
            breaker.record_failure(done_ms)
        self.policy.observe(device, latency_ms, ok)

    def route(
        self, request: FleetRequest, now_ms: Optional[float] = None
    ) -> ReferenceDispatchOutcome:
        c = self.config
        self.routed += 1
        t = request.t_ms if now_ms is None else now_ms
        deadline_at = request.t_ms + request.deadline_ms
        tried: List[str] = []
        failures = 0
        dispatches = 0
        cause = ""
        attempts = 1 + (c.max_redispatch if c.resilient else 0)
        outcome: Optional[ReferenceDispatchOutcome] = None
        while attempts > 0:
            attempts -= 1
            ranked = [
                d
                for d in self.policy.rank(
                    self._candidates(request, t), request, t
                )
                if d.name not in tried
            ] or [
                d
                for d in self.policy.rank(
                    self._candidates(request, t), request, t
                )
            ]
            if not ranked:
                outcome = self._finish(
                    request, ok=False, device="", completion_ms=t,
                    dispatches=dispatches, failures=failures,
                    hedged=False, hedge_cancelled=False,
                    cause=cause or "no-device",
                )
                break
            primary = ranked[0]
            tried.append(primary.name)
            dispatches += 1
            self._take_probe(primary, t)
            attempt = self._try_dispatch(primary, request, t)
            if attempt.ok:
                outcome = self._maybe_hedge(
                    request, primary, attempt, ranked[1:], t,
                    dispatches, failures,
                )
                break
            failures += 1
            cause = attempt.cause
            self._record(
                primary.name, False, attempt.done_ms,
                attempt.done_ms - t,
            )
            t = attempt.done_ms
            if attempts == 0 or t >= deadline_at + request.deadline_ms:
                outcome = self._finish(
                    request, ok=False, device=primary.name,
                    completion_ms=t, dispatches=dispatches,
                    failures=failures, hedged=False,
                    hedge_cancelled=False, cause=cause,
                )
                break
        assert outcome is not None
        self.outcomes.append(outcome)
        return outcome

    def _maybe_hedge(
        self,
        request: FleetRequest,
        primary: FleetDevice,
        attempt: _Attempt,
        alternates: List[FleetDevice],
        dispatch_ms: float,
        dispatches: int,
        failures: int,
    ) -> ReferenceDispatchOutcome:
        c = self.config
        hedge_at = request.t_ms + c.hedge_fraction * request.deadline_ms
        deadline_at = request.t_ms + request.deadline_ms
        can_hedge = (
            c.resilient
            and c.hedging
            and alternates
            and attempt.done_ms > deadline_at
            and attempt.done_ms > hedge_at
            and self.hedges_fired < c.hedge_budget * self.routed
        )
        if not can_hedge:
            self._record(
                primary.name, True, attempt.done_ms,
                attempt.done_ms - request.t_ms,
            )
            return self._finish(
                request, ok=True, device=primary.name,
                completion_ms=attempt.done_ms, dispatches=dispatches,
                failures=failures, hedged=False,
                hedge_cancelled=False,
            )
        self.hedges_fired += 1
        hedge_start = max(hedge_at, dispatch_ms)
        backup = alternates[0]
        self._take_probe(backup, hedge_start)
        hedge = self._try_dispatch(backup, request, hedge_start)
        if hedge.ok and hedge.done_ms < attempt.done_ms:
            winner, loser = hedge, attempt
            loser_dev: FleetDevice = primary
        else:
            winner, loser = attempt, hedge
            loser_dev = backup
        cancelled = loser.ok
        if cancelled:
            loser_dev.cancel_after(
                max(loser.start_ms, winner.done_ms)
            )
            self.hedge_cancels += 1
            self.breakers[loser_dev.name].release_probe()
        self._record(
            winner.device, True, winner.done_ms,
            winner.done_ms - request.t_ms,
        )
        if not hedge.ok:
            failures += 1
            self._record(
                hedge.device, False, hedge.done_ms,
                hedge.done_ms - request.t_ms,
            )
        return self._finish(
            request, ok=True, device=winner.device,
            completion_ms=winner.done_ms, dispatches=dispatches + 1,
            failures=failures, hedged=True, hedge_cancelled=cancelled,
        )

    def _finish(
        self,
        request: FleetRequest,
        ok: bool,
        device: str,
        completion_ms: float,
        dispatches: int,
        failures: int,
        hedged: bool,
        hedge_cancelled: bool,
        cause: str = "",
        shed: bool = False,
    ) -> ReferenceDispatchOutcome:
        latency = completion_ms - request.t_ms
        outcome = ReferenceDispatchOutcome(
            rid=request.rid,
            model=request.model,
            priority=request.priority,
            ok=ok,
            shed=shed,
            device=device,
            t_ms=request.t_ms,
            completion_ms=completion_ms,
            latency_ms=latency,
            deadline_met=ok and latency <= request.deadline_ms,
            dispatches=dispatches,
            failures=failures,
            hedged=hedged,
            hedge_cancelled=hedge_cancelled,
            cause=cause,
        )
        if BUS.active:
            BUS.emit(
                SpanKind.FLEET_DISPATCH,
                f"req{request.rid}",
                device=outcome.device,
                ok=outcome.ok,
                shed=outcome.shed,
                latency_ms=outcome.latency_ms,
                deadline_met=outcome.deadline_met,
                dispatches=outcome.dispatches,
                hedged=outcome.hedged,
                hedge_cancelled=outcome.hedge_cancelled,
            )
        return outcome

    def shed(
        self, request: FleetRequest, now_ms: float
    ) -> ReferenceDispatchOutcome:
        outcome = self._finish(
            request, ok=False, device="", completion_ms=now_ms,
            dispatches=0, failures=0, hedged=False,
            hedge_cancelled=False, cause="shed", shed=True,
        )
        self.outcomes.append(outcome)
        return outcome


# ----------------------------------------------------------------------
# traffic
# ----------------------------------------------------------------------
class ReferenceTrafficModel(TrafficModel):
    """One scalar draw per model and priority choice, never memoized
    (the live memo is keyed by the fields alone, so it would hand the
    reference the live schedule)."""

    def generate(self) -> List[FleetRequest]:
        return self._generate()

    def _generate(self) -> List[FleetRequest]:
        rng = np.random.default_rng((self.seed, 0xF1EE7))
        model_names, model_p = self._weighted(self.models)
        prio_values, prio_p = self._weighted(self.priorities)
        model_cdf = model_p.cumsum()
        model_cdf /= model_cdf[-1]
        prio_cdf = prio_p.cumsum()
        prio_cdf /= prio_cdf[-1]
        requests: List[FleetRequest] = []
        slots = int(math.ceil(self.duration_s * 1000.0 / SLOT_MS))
        burst_left = 0
        rid = 0
        for slot in range(slots):
            start_ms = slot * SLOT_MS
            if burst_left > 0:
                burst_left -= 1
            elif rng.random() < self.burst_prob:
                burst_left = self.burst_slots
            rate = self.rate_rps(start_ms / 1000.0)
            if burst_left > 0:
                rate *= self.burst_mult
            mean = rate * SLOT_MS / 1000.0
            count = int(rng.poisson(mean))
            offsets = np.sort(rng.uniform(0.0, SLOT_MS, size=count))
            for offset in offsets:
                requests.append(
                    FleetRequest(
                        rid=rid,
                        t_ms=float(start_ms + offset),
                        model=model_names[
                            int(model_cdf.searchsorted(
                                rng.random(), side="right"))
                        ],
                        priority=int(
                            prio_values[
                                int(prio_cdf.searchsorted(
                                    rng.random(), side="right"))
                            ]
                        ),
                        deadline_ms=self.deadline_ms,
                    )
                )
                rid += 1
        return requests


# ----------------------------------------------------------------------
# simulator
# ----------------------------------------------------------------------
class ReferenceFleetSimulator(FleetSimulator):
    """A fleet run on the reference router and policy, with the
    per-request loop as it was."""

    def __init__(
        self,
        devices: List[FleetDevice],
        traffic: TrafficModel,
        policy: Union[str, RoutingPolicy] = "least-loaded",
        **kwargs: Any,
    ):
        if isinstance(policy, str):
            policy = reference_policy(policy)
        super().__init__(devices, traffic, policy=policy, **kwargs)
        self.router = ReferenceFleetRouter(
            self.devices, self.policy, self.router.config
        )

    def run(self) -> FleetReport:
        from repro.serving.fleet.faults import device_fault_schedule

        requests = self.traffic.generate()
        duration_ms = self.traffic.duration_s * 1000.0
        names = [d.name for d in self.devices]
        windows = (
            device_fault_schedule(self.plan, names)
            if self.plan is not None
            else []
        )
        for device in self.devices:
            device.plan_outages(windows, warm_failover=self.resilient)
            device.emit_restores()

        outcomes: List[Any] = []
        for request in requests:
            self.router.tick(request.t_ms)
            if self.governor.should_shed(request):
                outcome = self.router.shed(request, request.t_ms)
            else:
                outcome = self.router.route(request)
            self.governor.observe(outcome, request.t_ms)
            outcomes.append(outcome)

        return self._report(outcomes, windows, duration_ms)


@contextmanager
def reference_classes() -> Iterator[None]:
    """Run :mod:`repro.analysis.fleet` experiments on the reference:
    its fleets are built from :class:`ReferenceFleetDevice`, its
    traffic from :class:`ReferenceTrafficModel` and its runs by
    :class:`ReferenceFleetSimulator`."""
    import repro.analysis.fleet as fleet

    swaps: List[Tuple[str, Any]] = [
        ("FleetDevice", ReferenceFleetDevice),
        ("FleetSimulator", ReferenceFleetSimulator),
        ("TrafficModel", ReferenceTrafficModel),
    ]
    saved = [(name, getattr(fleet, name)) for name, _ in swaps]
    try:
        for name, cls in swaps:
            setattr(fleet, name, cls)
        yield
    finally:
        for name, original in saved:
            setattr(fleet, name, original)
