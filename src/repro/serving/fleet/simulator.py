"""Event-driven fleet simulation: traffic x faults x routing -> report.

The simulator replays a seeded traffic schedule against a fleet of
:class:`~repro.serving.fleet.device.FleetDevice`s whose outages come
from a :class:`~repro.faults.FaultPlan`, routed by a
:class:`~repro.serving.fleet.router.FleetRouter` and governed by the
:class:`~repro.serving.fleet.degradation.DegradationGovernor`.

Everything advances on *simulated* milliseconds and seeded RNG — no
wall clock anywhere — so the same ``(fleet, traffic seed, plan seed,
policy, resilient)`` tuple produces a byte-identical
:class:`FleetReport`, event log included.  That is what makes the
resilience experiment a controlled comparison: the baseline and the
resilient fleet face the *same* arrivals and the *same* outages.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro.faults.scenario import FaultPlan
from repro.serving.fleet.degradation import (
    DegradationConfig,
    DegradationGovernor,
)
from repro.serving.fleet.device import FleetDevice
from repro.serving.fleet.faults import device_fault_schedule
from repro.serving.fleet.router import (
    DispatchOutcome,
    FleetRouter,
    RouterConfig,
    RoutingPolicy,
    make_policy,
)
from repro.serving.fleet.traffic import TrafficModel

REPORT_SCHEMA = "trtsim.fleet_report/1"


@dataclass
class FleetReport:
    """Everything one fleet run measured."""

    schema: str = REPORT_SCHEMA
    policy: str = ""
    resilient: bool = True
    scenario: str = "none"
    seed: int = 0
    duration_ms: float = 0.0
    requests: int = 0
    served: int = 0
    failed: int = 0
    shed: int = 0
    deadline_hits: int = 0
    deadline_misses: int = 0
    attainment: float = 0.0
    attainment_by_priority: Dict[str, float] = field(
        default_factory=dict
    )
    p50_latency_ms: float = 0.0
    p99_latency_ms: float = 0.0
    hedges: int = 0
    hedge_cancels: int = 0
    redispatches: int = 0
    failovers: int = 0
    warm_failovers: int = 0
    cold_loads: int = 0
    device_seconds: float = 0.0
    devices: List[Dict[str, Any]] = field(default_factory=list)
    degradation: Dict[str, Any] = field(default_factory=dict)
    event_log: List[str] = field(default_factory=list)
    outcomes: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "policy": self.policy,
            "resilient": self.resilient,
            "scenario": self.scenario,
            "seed": self.seed,
            "duration_ms": self.duration_ms,
            "requests": self.requests,
            "served": self.served,
            "failed": self.failed,
            "shed": self.shed,
            "deadline_hits": self.deadline_hits,
            "deadline_misses": self.deadline_misses,
            "attainment": self.attainment,
            "attainment_by_priority": self.attainment_by_priority,
            "p50_latency_ms": self.p50_latency_ms,
            "p99_latency_ms": self.p99_latency_ms,
            "hedges": self.hedges,
            "hedge_cancels": self.hedge_cancels,
            "redispatches": self.redispatches,
            "failovers": self.failovers,
            "warm_failovers": self.warm_failovers,
            "cold_loads": self.cold_loads,
            "device_seconds": self.device_seconds,
            "devices": self.devices,
            "degradation": self.degradation,
            "event_log": self.event_log,
            "outcomes": self.outcomes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _quantile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank quantile over an already-sorted list."""
    if not sorted_values:
        return 0.0
    idx = min(
        len(sorted_values) - 1,
        max(0, int(round(q * (len(sorted_values) - 1)))),
    )
    return sorted_values[idx]


class FleetSimulator:
    """One seeded fleet run."""

    def __init__(
        self,
        devices: List[FleetDevice],
        traffic: TrafficModel,
        policy: Union[str, RoutingPolicy] = "least-loaded",
        plan: Optional[FaultPlan] = None,
        resilient: bool = True,
        router_config: Optional[RouterConfig] = None,
        degradation: Optional[DegradationConfig] = None,
        record_outcomes: bool = False,
    ):
        self.devices = list(devices)
        self.traffic = traffic
        self.policy = (
            make_policy(policy) if isinstance(policy, str) else policy
        )
        self.plan = plan
        self.resilient = resilient
        # Copies: the caller's configs may be reused for another run.
        config = dataclasses.replace(
            router_config or RouterConfig(), resilient=resilient
        )
        self.router = FleetRouter(self.devices, self.policy, config)
        degr = degradation or DegradationConfig()
        degr = dataclasses.replace(
            degr, enabled=degr.enabled and resilient
        )
        self.governor = DegradationGovernor(self.devices, degr)
        self.record_outcomes = record_outcomes

    # ------------------------------------------------------------------
    def run(self) -> FleetReport:
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

        outcomes: List[DispatchOutcome] = []
        tick = self.router.tick
        route = self.router.route
        shed = self.router.shed
        should_shed = self.governor.should_shed
        observe = self.governor.observe
        record = outcomes.append
        for request in requests:
            t_ms = request.t_ms
            tick(t_ms)
            if should_shed(request):
                outcome = shed(request, t_ms)
            else:
                outcome = route(request)
            observe(outcome, t_ms)
            record(outcome)

        return self._report(outcomes, windows, duration_ms)

    # ------------------------------------------------------------------
    def _report(
        self,
        outcomes: List[DispatchOutcome],
        windows: List[Any],
        duration_ms: float,
    ) -> FleetReport:
        report = FleetReport(
            policy=self.policy.name,
            resilient=self.resilient,
            scenario=self.plan.name if self.plan is not None else "none",
            seed=self.traffic.seed,
            duration_ms=duration_ms,
            requests=len(outcomes),
        )
        latencies: List[float] = []
        by_prio: Dict[int, List[int]] = {}
        for o in outcomes:
            hits_total = by_prio.setdefault(o.priority, [0, 0])
            hits_total[1] += 1
            if o.shed:
                report.shed += 1
            elif o.ok:
                report.served += 1
                latencies.append(o.latency_ms)
            else:
                report.failed += 1
            if o.deadline_met:
                report.deadline_hits += 1
                hits_total[0] += 1
            else:
                report.deadline_misses += 1
            if o.hedged:
                report.hedges += 1
            if o.hedge_cancelled:
                report.hedge_cancels += 1
            report.redispatches += max(0, o.dispatches - 1)
        if outcomes:
            report.attainment = report.deadline_hits / len(outcomes)
        report.attainment_by_priority = {
            str(p): (v[0] / v[1] if v[1] else 0.0)
            for p, v in sorted(by_prio.items())
        }
        latencies.sort()
        report.p50_latency_ms = _quantile(latencies, 0.50)
        report.p99_latency_ms = _quantile(latencies, 0.99)
        for device in self.devices:
            report.failovers += len(device.restores)
            report.warm_failovers += sum(
                1 for r in device.restores if r.warm
            )
            report.cold_loads += device.cold_loads
            report.device_seconds += device.device_seconds(duration_ms)
            report.devices.append(device.to_dict())
        report.degradation = self.governor.to_dict()
        report.event_log = self._event_log(windows)
        if self.record_outcomes:
            report.outcomes = [o.to_dict() for o in outcomes]
        return report

    def _event_log(self, windows: List[Any]) -> List[str]:
        """The run's control-plane history, deterministically ordered.

        Same seed, same fleet, same flags => byte-identical log: every
        entry is stamped with simulated time and fixed-precision
        formatting, and ties sort by the line text itself.
        """
        lines: List[str] = []
        for w in windows:
            lines.append(
                f"{w.start_ms:012.3f} fault {w.kind.value} {w.device} "
                f"sev={w.severity} until={w.end_ms:.3f}"
            )
        for t, dev, state, cause in self.router.health.transitions:
            lines.append(
                f"{t:012.3f} health {dev} -> {state} cause={cause}"
            )
        for name in sorted(self.router.breakers):
            for t, frm, to in self.router.breakers[name].transitions:
                lines.append(
                    f"{t:012.3f} breaker {name} {frm} -> {to}"
                )
        for device in self.devices:
            for r in device.restores:
                kind = "warm" if r.warm else "cold"
                lines.append(
                    f"{r.t_ms:012.3f} failover {device.name} {kind} "
                    f"engines={r.engines} restore_ms={r.restore_ms:.3f}"
                )
        for t, frm, to, attainment in self.governor.moves:
            lines.append(
                f"{t:012.3f} degrade {frm} -> {to} "
                f"attainment={attainment:.4f}"
            )
        return sorted(lines)
