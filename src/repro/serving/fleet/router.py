"""Health-checked fleet routing with pluggable policies, bounded
redispatch and deadline-aware hedging.

The router is the fleet's front door.  Per request it:

1. filters candidates — devices serving the model, then (when
   resilient) not evicted by the :class:`~repro.serving.fleet.health
   .HealthChecker` and admitted by their
   :class:`~repro.serving.fleet.breaker.CircuitBreaker`;
2. ranks them with the configured :class:`RoutingPolicy`;
3. dispatches, re-dispatching on failure up to ``max_redispatch``
   times (each failed attempt burns real simulated time: refused is
   instant, a partition burns ``rpc_timeout_ms``);
4. hedges: if the winning dispatch's *projected* completion would
   spend more than ``hedge_fraction`` of the request deadline, a
   second copy goes to the next-ranked device once that fraction has
   elapsed; the first finisher wins and the loser is **cancelled**,
   returning its queue time to the device — a hedged request is still
   exactly one serve.

Every terminal outcome is a ``serve.fleet.dispatch`` span; the bus
folds those into ``trtsim_fleet_*`` counters and histograms.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.serving.fleet.breaker import CircuitBreaker
from repro.serving.fleet.device import FleetDevice
from repro.serving.fleet.health import PROBE_OK, PROBE_TIMEOUT, HealthChecker
from repro.serving.fleet.traffic import FleetRequest
from repro.telemetry.bus import BUS, SpanKind


# ----------------------------------------------------------------------
# policies
# ----------------------------------------------------------------------
class RoutingPolicy(abc.ABC):
    """Ranks candidate devices for one request."""

    name = "policy"

    @abc.abstractmethod
    def rank(
        self,
        candidates: List[FleetDevice],
        request: FleetRequest,
        now_ms: float,
    ) -> List[FleetDevice]:
        """Candidates in dispatch-preference order."""

    def observe(
        self, device: str, latency_ms: float, ok: bool
    ) -> None:
        """Feedback after a dispatch completes (default: ignored)."""


class RoundRobinPolicy(RoutingPolicy):
    """Rotate through candidates regardless of state."""

    name = "round-robin"

    def __init__(self) -> None:
        self._turn = 0

    def rank(
        self,
        candidates: List[FleetDevice],
        request: FleetRequest,
        now_ms: float,
    ) -> List[FleetDevice]:
        if not candidates:
            return []
        pivot = self._turn % len(candidates)
        self._turn += 1
        return candidates[pivot:] + candidates[:pivot]


class LeastLoadedPolicy(RoutingPolicy):
    """Shortest queue first.

    This is the policy the black-hole failure mode punishes: a crashed
    device fails instantly, keeps an empty queue, and — without health
    checks or breakers — soaks up most of the traffic.
    """

    name = "least-loaded"

    def rank(
        self,
        candidates: List[FleetDevice],
        request: FleetRequest,
        now_ms: float,
    ) -> List[FleetDevice]:
        if len(candidates) < 2:
            return list(candidates)
        # Sorting prebuilt (queue, name, position) keys orders exactly
        # like a stable sort keyed on (queue, name); the queue is
        # max(0.0, busy_until_ms - now_ms), written without the call.
        keys = [
            (queue if (queue := d.busy_until_ms - now_ms) > 0.0 else 0.0,
             d.name, i, d)
            for i, d in enumerate(candidates)
        ]
        keys.sort()
        return [key[3] for key in keys]


class LatencyAwarePolicy(RoutingPolicy):
    """EWMA of observed per-device latency plus current queue delay."""

    name = "latency-aware"

    def __init__(self, alpha: float = 0.3):
        self.alpha = alpha
        self._ewma: Dict[str, float] = {}

    def observe(
        self, device: str, latency_ms: float, ok: bool
    ) -> None:
        if not ok:
            return
        prev = self._ewma.get(device)
        self._ewma[device] = (
            latency_ms if prev is None
            else self.alpha * latency_ms + (1 - self.alpha) * prev
        )

    def rank(
        self,
        candidates: List[FleetDevice],
        request: FleetRequest,
        now_ms: float,
    ) -> List[FleetDevice]:
        def score(d: FleetDevice) -> Tuple[float, str]:
            queue = max(0.0, d.busy_until_ms - now_ms)
            return (self._ewma.get(d.name, 0.0) + queue, d.name)

        return sorted(candidates, key=score)


class EngineAffinityPolicy(RoutingPolicy):
    """Prefer devices already warm for the request's engine digest.

    Keyed by the EngineStore content address of the request's network
    (``ModelServing.affinity_key``): a warm device serves from its
    resident ladder; a cold one pays a store fetch on the request
    path.  Ties break least-loaded.
    """

    name = "engine-affinity"

    def rank(
        self,
        candidates: List[FleetDevice],
        request: FleetRequest,
        now_ms: float,
    ) -> List[FleetDevice]:
        def score(d: FleetDevice) -> Tuple[int, float, str]:
            cold = 0 if d.is_warm(request.model) else 1
            queue = max(0.0, d.busy_until_ms - now_ms)
            return (cold, queue, d.name)

        return sorted(candidates, key=score)


POLICIES = {
    "round-robin": RoundRobinPolicy,
    "least-loaded": LeastLoadedPolicy,
    "latency-aware": LatencyAwarePolicy,
    "engine-affinity": EngineAffinityPolicy,
}


def make_policy(name: str) -> RoutingPolicy:
    try:
        return POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown routing policy {name!r}; "
            f"choose from {sorted(POLICIES)}"
        ) from None


# ----------------------------------------------------------------------
# router
# ----------------------------------------------------------------------
@dataclass
class RouterConfig:
    """Fault-handling knobs of the fleet front door."""

    #: Router-side timeout on a dispatch into a partition.
    rpc_timeout_ms: float = 60.0
    #: Failed-dispatch retries per request (on *other* devices first).
    max_redispatch: int = 3
    #: Hedge once this fraction of the deadline has elapsed and the
    #: projected completion would still miss it.
    hedge_fraction: float = 0.5
    hedging: bool = True
    #: Cap on hedges as a fraction of routed requests ("The Tail at
    #: Scale" discipline): without a budget, an overloaded fleet
    #: hedges *every* late request and doubles its own load.
    hedge_budget: float = 0.02
    #: Master switch: False routes blindly (no health view, no
    #: breakers, no hedging, no redispatch) — the baseline fleet.
    resilient: bool = True
    breaker_failure_threshold: int = 3
    breaker_open_ms: float = 400.0
    health_period_ms: float = 100.0
    health_suspect_after: int = 1
    health_evict_after: int = 3

    def __post_init__(self) -> None:
        if not self.max_redispatch >= 0:
            raise ValueError(
                f"max_redispatch must be >= 0, got {self.max_redispatch}"
            )


class DispatchOutcome(NamedTuple):
    """Terminal fate of one request at the fleet layer."""

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


class _Attempt(NamedTuple):
    """One dispatch attempt's simulated result."""

    device: str
    ok: bool
    done_ms: float
    cause: str = ""
    start_ms: float = 0.0


class FleetRouter:
    """Routes :class:`FleetRequest`s across :class:`FleetDevice`s.

    Single-threaded: a candidate is admitted by its breaker's
    ``admits()`` and its probe taken by ``allow()`` at dispatch.  See
    DESIGN.md, "Fleet hot path", for the call order that keeps routing
    byte-identical.
    """

    def __init__(
        self,
        devices: List[FleetDevice],
        policy: RoutingPolicy,
        config: Optional[RouterConfig] = None,
    ):
        if not devices:
            raise ValueError("need at least one device")
        self.devices = list(devices)
        self.by_name = {d.name: d for d in self.devices}
        self.policy = policy
        self.config = config or RouterConfig()
        c = self.config
        self.health = HealthChecker(
            [d.name for d in self.devices],
            probe=lambda name, now: self.by_name[name].probe(now),
            period_ms=c.health_period_ms,
            suspect_after=c.health_suspect_after,
            evict_after=c.health_evict_after,
        )
        self.breakers = {
            d.name: CircuitBreaker(
                d.name,
                failure_threshold=c.breaker_failure_threshold,
                open_ms=c.breaker_open_ms,
            )
            for d in self.devices
        }
        #: model -> (device, name, breaker) for every device serving
        #: it, in fleet order.  Listed on the model's first request and
        #: listed again after any ``install``.
        self._serving: Dict[
            str, List[Tuple[FleetDevice, str, CircuitBreaker]]
        ] = {}
        self._serving_installs = FleetDevice.installs
        self.hedges_fired = 0
        self.hedge_cancels = 0
        self.routed = 0
        self.outcomes: List[DispatchOutcome] = []

    # ------------------------------------------------------------------
    def tick(self, now_ms: float) -> None:
        """Advance the control plane (heartbeats) to ``now_ms``."""
        if self.config.resilient:
            self.health.tick(now_ms)

    def _candidates(
        self, request: FleetRequest, now_ms: float
    ) -> List[FleetDevice]:
        if self._serving_installs != FleetDevice.installs:
            self._serving = {}
            self._serving_installs = FleetDevice.installs
        serving = self._serving.get(request.model)
        if serving is None:
            serving = self._serving[request.model] = [
                (d, d.name, self.breakers[d.name])
                for d in self.devices
                if d.has_model(request.model)
            ]
        if not self.config.resilient:
            return [d for d, _, _ in serving]
        # admits() takes no probe slot (an elapsed OPEN timer flips to
        # HALF_OPEN there); the slot is taken at dispatch.
        alive = self.health.alive
        return [
            d for d, name, breaker in serving
            if alive(name) and breaker.admits(now_ms)
        ]

    def _take_probe(self, device: FleetDevice, now_ms: float) -> None:
        """Take the dispatch to ``device`` through its breaker.

        Candidates are filtered with :meth:`CircuitBreaker.admits`,
        which takes no probe slot; the slot of a half-open breaker is
        taken here, only for the device a copy is actually sent to.
        """
        taken = self.breakers[device.name].allow(now_ms)
        assert taken, f"breaker of {device.name} refused an admitted dispatch"

    # ------------------------------------------------------------------
    def _try_dispatch(
        self, device: FleetDevice, request: FleetRequest, now_ms: float
    ) -> _Attempt:
        """Simulate one dispatch; advances device queue state on
        success, burns router time on failure."""
        reach = device.probe(now_ms)
        if reach == PROBE_TIMEOUT:
            # The request vanishes into the partition; the router only
            # learns at its own timeout.
            return _Attempt(
                device.name, False, now_ms + self.config.rpc_timeout_ms,
                "partition",
            )
        if reach != PROBE_OK:
            # Connection refused: instant, unambiguous.
            return _Attempt(device.name, False, now_ms, "crash")
        start, completion = device.execute(
            request.model, request.rid, now_ms
        )
        edge = device.next_downtime_edge(now_ms)
        if edge is not None and edge < completion:
            # The node died mid-service: in-flight work lost.  The
            # router notices via the broken connection at crash time.
            device.cancel_after(edge)
            return _Attempt(
                device.name, False, max(now_ms, edge), "crash"
            )
        return _Attempt(device.name, True, completion, "", start)

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

    # ------------------------------------------------------------------
    def route(
        self, request: FleetRequest, now_ms: Optional[float] = None
    ) -> DispatchOutcome:
        """Dispatch ``request``; returns its terminal outcome.

        ``now_ms`` defaults to the request arrival time.
        """
        c = self.config
        resilient = c.resilient
        rank = self.policy.rank
        self.routed += 1
        t = request.t_ms if now_ms is None else now_ms
        deadline_at = request.t_ms + request.deadline_ms
        tried: List[str] = []
        failures = 0
        dispatches = 0
        cause = ""
        attempts = 1 + (c.max_redispatch if resilient else 0)
        outcome: Optional[DispatchOutcome] = None
        while attempts > 0:
            attempts -= 1
            ranked = rank(self._candidates(request, t), request, t)
            if tried:
                ranked = [d for d in ranked if d.name not in tried]
            if not ranked:
                # Every candidate was tried (or none is admitted):
                # rank the candidates again, tried ones included.
                ranked = rank(self._candidates(request, t), request, t)
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
            if resilient:
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
    ) -> DispatchOutcome:
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
        # Fire the hedge on the best alternate at hedge_at (or now, if
        # the budget is already spent).
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
        # Cancel the loser: its device gets the queued time back (down
        # to the later of the winner's response and the loser's own
        # start, so earlier queued work is untouched).  The request is
        # counted as ONE serve, on the winner.
        cancelled = loser.ok
        if cancelled:
            loser_dev.cancel_after(
                max(loser.start_ms, winner.done_ms)
            )
            self.hedge_cancels += 1
            # The cancelled copy is recorded neither way: hand back the
            # probe slot it took at dispatch.
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
    ) -> DispatchOutcome:
        latency = completion_ms - request.t_ms
        outcome = DispatchOutcome(
            request.rid,
            request.model,
            request.priority,
            ok,
            shed,
            device,
            request.t_ms,
            completion_ms,
            latency,
            ok and latency <= request.deadline_ms,
            dispatches,
            failures,
            hedged,
            hedge_cancelled,
            cause,
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

    def shed(self, request: FleetRequest, now_ms: float) -> DispatchOutcome:
        """Refuse ``request`` at the front door (degradation ladder)."""
        outcome = self._finish(
            request, ok=False, device="", completion_ms=now_ms,
            dispatches=0, failures=0, hedged=False,
            hedge_cancelled=False, cause="shed", shed=True,
        )
        self.outcomes.append(outcome)
        return outcome
