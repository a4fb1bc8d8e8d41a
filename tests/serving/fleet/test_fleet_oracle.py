"""The fleet's compiled fault timelines and allocation-light routing
agree byte for byte with the scan-based reference of
:mod:`tests.serving.fleet.reference_fleet`.

Generated fleets of 1-6 devices serve 1-3 models with ladders of one to
three levels (with and without fallbacks), warm and cold, with and
without co-location factors.  They run under all four policies with
resilience, hedging, the degradation ladder and caches each on and off,
against the four canned fleet plans and generated window sets
(overlapping crash, reboot, partition and brownout windows, some
open-ended), on bursty traffic.  Every outcome, the event log and the
end state of every device, breaker and health view are compared.
Device queries are compared at every window edge and one ulp either
side of it, traffic schedules over generated weights, bursts, diurnal
amplitudes and seeds.  CI replays the committed experiments
(:mod:`tests.serving.fleet.fleet_oracle`).
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from typing import Any, Dict, List, Tuple

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from repro.caching import caches_disabled
from repro.faults import FaultPlan, FaultScenario, canned_fleet_plan
from repro.faults.events import FaultKind
from repro.hardware.specs import XAVIER_NX
from repro.serving.fleet import (
    POLICIES,
    DegradationConfig,
    DeviceFaultWindow,
    FleetDevice,
    FleetRequest,
    FleetRouter,
    FleetSimulator,
    RouterConfig,
    TrafficModel,
    make_policy,
)
from repro.serving.fleet.device import ModelServing

from tests.serving.fleet.fleet_oracle import (
    first_difference,
    fleet_state,
    router_state,
)
from tests.serving.fleet.reference_fleet import (
    ReferenceFleetDevice,
    ReferenceFleetRouter,
    ReferenceFleetSimulator,
    ReferenceTrafficModel,
    reference_policy,
)

MODELS = ("m0", "m1", "m2")
KINDS = (
    FaultKind.DEVICE_CRASH,
    FaultKind.DEVICE_REBOOT,
    FaultKind.NETWORK_PARTITION,
    FaultKind.THERMAL_BROWNOUT,
)
CANNED = ("fleet_none", "fleet_chaos", "fleet_cold_reboot",
          "fleet_brownout")


class _Ladder:
    """Stands in for a supervisor: without a store the fleet reads only
    how many engines its ladder holds."""

    def __init__(self, levels: int):
        self.engines = [None] * levels


def make_fleet(cls: type, layout: List[Any], seed: int,
               jitter: float) -> List[FleetDevice]:
    """Devices ``dev0..`` of class ``cls``; ``layout`` holds, per
    device, {model: (ladder base times, warm)} and co-location factors."""
    devices = []
    for i, (ladders, coloc) in enumerate(layout):
        device = cls(f"dev{i}", XAVIER_NX, seed=seed, jitter=jitter)
        for model, (base_ms, warm) in ladders.items():
            device._models[model] = ModelServing(
                model, model, _Ladder(len(base_ms)), list(base_ms)
            )
            device._warm[model] = warm
            device._sources[model] = (None, (), None)
        device.set_colocation(coloc)
        devices.append(device)
    return devices


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
#: Window edges drawn from a coarse grid coincide often, which is where
#: overlapping windows disagree if anything does.
GRID = st.sampled_from([0.0, 50.0, 100.0, 100.5, 250.0, 400.0])


def _times(horizon_ms: float) -> st.SearchStrategy[float]:
    return st.one_of(
        GRID, st.floats(0.0, horizon_ms, allow_nan=False)
    )


@st.composite
def windows(draw: Any, devices: Tuple[str, ...],
            horizon_ms: float) -> List[Tuple[Any, ...]]:
    """(kind, device, start_ms, length_ms, severity, amplitude)."""
    out = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(KINDS))
        amplitude = None
        if kind is FaultKind.THERMAL_BROWNOUT and draw(st.booleans()):
            amplitude = draw(st.floats(1.0, 3.0))
        out.append((
            kind,
            draw(st.sampled_from(devices)),
            draw(_times(horizon_ms)),
            draw(st.one_of(st.just(math.inf), _times(horizon_ms))),
            draw(st.integers(1, 5)),
            amplitude,
        ))
    return out


def _weights(keys: Tuple[Any, ...]) -> st.SearchStrategy[Dict[Any, float]]:
    return st.lists(
        st.one_of(st.just(0.0), st.floats(0.01, 5.0)),
        min_size=len(keys), max_size=len(keys),
    ).filter(lambda ws: sum(ws) > 0).map(
        lambda ws: dict(zip(keys, ws))
    )


@st.composite
def traffic_kwargs(draw: Any, models: Tuple[str, ...] = MODELS,
                   max_s: float = 1.2, max_rps: float = 600.0) -> Dict:
    prios = draw(st.sampled_from([(0,), (0, 1, 2), (1, 5)]))
    return dict(
        duration_s=draw(st.floats(0.1, max_s)),
        base_rps=draw(st.floats(10.0, max_rps)),
        models=draw(_weights(models)),
        diurnal_amplitude=draw(st.floats(-1.0, 1.0)),
        burst_prob=draw(st.sampled_from([0.0, 0.1, 0.5])),
        burst_mult=draw(st.floats(0.0, 5.0)),
        burst_slots=draw(st.integers(1, 4)),
        deadline_ms=draw(st.floats(2.0, 120.0)),
        priorities=draw(_weights(prios)),
        seed=draw(st.integers(0, 2**16)),
    )


@st.composite
def fleet_cases(draw: Any) -> Dict[str, Any]:
    n_models = draw(st.integers(1, 3))
    models = MODELS[:n_models]
    layout = []
    for _ in range(draw(st.integers(1, 6))):
        served = draw(st.lists(
            st.sampled_from(models), min_size=1, max_size=n_models,
            unique=True,
        ))
        ladders = {
            m: (
                draw(st.lists(st.floats(0.5, 40.0), min_size=1,
                              max_size=3)),
                draw(st.booleans()),
            )
            for m in served
        }
        coloc = {
            m: draw(st.floats(1.0, 2.0))
            for m in served if draw(st.booleans())
        }
        layout.append((ladders, coloc))
    # Offer a drawn fraction of the fleet's level-0 capacity, with a
    # deadline a few service times long, so queues build and hedges,
    # redispatches and breakers all come into play.
    traffic = draw(traffic_kwargs(models, max_s=1.0))
    capacity = sum(
        1000.0 / min(base[0] for base, _ in ladders.values())
        for ladders, _ in layout
    )
    traffic["base_rps"] = min(
        draw(st.floats(0.2, 1.6)) * capacity,
        800.0 / traffic["duration_s"],
    )
    traffic["deadline_ms"] = draw(st.floats(1.0, 6.0)) * max(
        base[0] for ladders, _ in layout for base, _ in ladders.values()
    )
    names = tuple(f"dev{i}" for i in range(len(layout)))
    if draw(st.booleans()):
        plan = canned_fleet_plan(
            draw(st.sampled_from(CANNED)), seed=draw(st.integers(0, 9))
        )
    else:
        plan = FaultPlan(
            scenarios=[
                FaultScenario(
                    kind=kind, target=device, start_s=start / 1000.0,
                    duration_s=length / 1000.0, severity=severity,
                    amplitude=amplitude, name=f"w{i}",
                )
                for i, (kind, device, start, length, severity, amplitude)
                in enumerate(draw(windows(
                    names, traffic["duration_s"] * 1000.0
                )))
            ],
            seed=draw(st.integers(0, 9)),
            name="generated",
        )
    return dict(
        layout=layout,
        seed=draw(st.integers(0, 99)),
        jitter=draw(st.sampled_from([0.0, 0.05, 0.3])),
        traffic=traffic,
        plan=plan,
        resilient=draw(st.sampled_from([True, True, False])),
        caches=draw(st.booleans()),
        router=dict(
            rpc_timeout_ms=draw(st.floats(1.0, 100.0)),
            max_redispatch=draw(st.integers(0, 3)),
            hedge_fraction=draw(st.floats(0.1, 0.9)),
            hedging=draw(st.sampled_from([True, True, False])),
            hedge_budget=draw(st.sampled_from([0.02, 0.3, 1.0, 0.0])),
            breaker_failure_threshold=draw(st.integers(1, 3)),
            breaker_open_ms=draw(st.floats(5.0, 300.0)),
            health_period_ms=draw(st.floats(10.0, 300.0)),
            health_evict_after=draw(st.integers(1, 3)),
        ),
        degradation=dict(
            window=draw(st.integers(1, 40)),
            min_dwell_ms=draw(st.floats(0.0, 300.0)),
            max_level=draw(st.integers(0, 3)),
            enabled=draw(st.booleans()),
        ),
    )


def run_case(reference: bool, policy: str, case: Dict[str, Any]) -> str:
    device_cls, sim_cls, traffic_cls = (
        (ReferenceFleetDevice, ReferenceFleetSimulator,
         ReferenceTrafficModel)
        if reference
        else (FleetDevice, FleetSimulator, TrafficModel)
    )
    sim = sim_cls(
        make_fleet(device_cls, case["layout"], case["seed"],
                   case["jitter"]),
        traffic_cls(**case["traffic"]),
        policy=policy,
        plan=case["plan"],
        resilient=case["resilient"],
        router_config=RouterConfig(**case["router"]),
        degradation=DegradationConfig(**case["degradation"]),
        record_outcomes=True,
    )
    with nullcontext() if case["caches"] else caches_disabled():
        return fleet_state(sim, sim.run())


#: Times on a 5 ms grid: with zero jitter every arrival, service
#: completion, heartbeat, breaker timer and window edge lands on it, so
#: the routing path meets each of them exactly.
STEP = st.integers(0, 80).map(lambda k: 5.0 * k)


@st.composite
def grid_cases(draw: Any) -> Dict[str, Any]:
    n = draw(st.integers(1, 4))
    names = tuple(f"dev{i}" for i in range(n))
    layout = [
        ({"m0": (
            draw(st.lists(st.sampled_from([5.0, 10.0, 20.0]),
                          min_size=1, max_size=2)),
            draw(st.booleans()),
        )}, {})
        for _ in names
    ]
    plan = [
        DeviceFaultWindow(
            kind=draw(st.sampled_from(KINDS)),
            device=draw(st.sampled_from(names)),
            start_ms=start,
            end_ms=start + draw(st.one_of(st.just(math.inf), STEP)),
            severity=draw(st.integers(1, 2)),
            scenario=f"w{i}",
        )
        for i, start in enumerate(draw(st.lists(STEP, max_size=4)))
    ]
    times = sorted(draw(st.lists(STEP, min_size=1, max_size=40)))
    return dict(
        layout=layout,
        plan=plan,
        busy=[draw(STEP) for _ in names],
        failures=[draw(st.integers(0, 3)) for _ in names],
        requests=[
            FleetRequest(
                rid=i, t_ms=t, model="m0", priority=1,
                deadline_ms=draw(st.sampled_from([10.0, 20.0, 40.0])),
            )
            for i, t in enumerate(times)
        ],
        router=dict(
            resilient=draw(st.sampled_from([True, True, False])),
            rpc_timeout_ms=draw(st.sampled_from([5.0, 20.0])),
            max_redispatch=draw(st.integers(0, 3)),
            hedging=draw(st.booleans()),
            hedge_budget=draw(st.sampled_from([0.0, 1.0])),
            breaker_failure_threshold=draw(st.integers(1, 3)),
            breaker_open_ms=draw(st.sampled_from([20.0, 50.0, 100.0])),
            health_period_ms=draw(st.sampled_from([25.0, 50.0, 1e9])),
        ),
    )


def route_grid(reference: bool, policy: str, case: Dict[str, Any]) -> str:
    """Tick and route ``case``'s requests one by one on a bare router
    whose breakers start with the drawn failure counts."""
    devices = make_fleet(
        ReferenceFleetDevice if reference else FleetDevice,
        case["layout"], seed=1, jitter=0.0,
    )
    for device, busy in zip(devices, case["busy"]):
        device.plan_outages(case["plan"], warm_failover=False)
        device.busy_until_ms = busy
    router_cls, policies = (
        (ReferenceFleetRouter, reference_policy) if reference
        else (FleetRouter, make_policy)
    )
    router = router_cls(
        devices, policies(policy), RouterConfig(**case["router"])
    )
    for device, failures in zip(devices, case["failures"]):
        for _ in range(failures):
            router.breakers[device.name].record_failure(0.0)
    outcomes = []
    for request in case["requests"]:
        router.tick(request.t_ms)
        outcomes.append(router.route(request).to_dict())
    return json.dumps(
        {"outcomes": outcomes, **router_state(router, devices)},
        sort_keys=True,
    )


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
#: Shrinking a failing fleet run takes minutes; the failure message
#: already names the first differing byte, so these tests skip it.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@settings(max_examples=10, deadline=None, derandomize=True,
          phases=NO_SHRINK)
@given(case=fleet_cases())
def test_fleet_runs_match_the_reference(policy, case):
    live = run_case(False, policy, case)
    ref = run_case(True, policy, case)
    assert first_difference(live, ref) is None


#: dev1's breaker half-opens at t=20; at t=25 the hedge of a late copy
#: on dev0 goes to dev1 and loses, so dev1's copy is cancelled while it
#: holds the probe slot.
HEDGE_INTO_HALF_OPEN = dict(
    layout=[({"m0": ([10.0], True)}, {}) for _ in range(2)],
    plan=[],
    busy=[0.0, 30.0],
    failures=[0, 3],
    requests=[
        FleetRequest(rid=i, t_ms=t, model="m0", priority=1,
                     deadline_ms=5.0)
        for i, t in enumerate([25.0, 50.0, 75.0, 100.0])
    ],
    router=dict(
        breaker_failure_threshold=3, breaker_open_ms=20.0,
        health_period_ms=1e9, hedge_budget=1.0,
    ),
)

#: The mirror case: half-open dev0 is the primary, and the hedge on the
#: faster dev1 wins, so dev0's copy is the one cancelled.
HEDGE_FROM_HALF_OPEN = dict(
    HEDGE_INTO_HALF_OPEN,
    layout=[({"m0": ([20.0], True)}, {}), ({"m0": ([5.0], True)}, {})],
    failures=[3, 0],
)

#: Both devices partitioned until t=40: the first request tries each,
#: then re-ranks the tried candidates for its last two attempts, which
#: advances round-robin's turn for every later request.
ALL_TRIED_RERANK = dict(
    layout=[({"m0": ([5.0], True)}, {}) for _ in range(2)],
    plan=[
        DeviceFaultWindow(
            kind=FaultKind.NETWORK_PARTITION, device=name, start_ms=0.0,
            end_ms=40.0, severity=1, scenario=f"p{name}",
        )
        for name in ("dev0", "dev1")
    ],
    busy=[0.0, 0.0],
    failures=[0, 0],
    requests=[
        FleetRequest(rid=i, t_ms=t, model="m0", priority=1,
                     deadline_ms=40.0)
        for i, t in enumerate([0.0, 50.0, 55.0, 60.0, 65.0])
    ],
    router=dict(
        rpc_timeout_ms=5.0, max_redispatch=3, breaker_open_ms=20.0,
        health_period_ms=1e9,
    ),
)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@settings(max_examples=30, deadline=None, derandomize=True,
          phases=NO_SHRINK)
@given(case=grid_cases())
@example(case=HEDGE_INTO_HALF_OPEN)
@example(case=HEDGE_FROM_HALF_OPEN)
@example(case=ALL_TRIED_RERANK)
def test_routing_on_grid_times_matches_the_reference(policy, case):
    live = route_grid(False, policy, case)
    ref = route_grid(True, policy, case)
    assert first_difference(live, ref) is None


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize(
    "case, half_open",
    [(HEDGE_INTO_HALF_OPEN, "dev1"), (HEDGE_FROM_HALF_OPEN, "dev0")],
    ids=["hedge-into", "hedge-from"],
)
def test_cancelled_hedge_loser_gives_back_its_probe_slot(
    monkeypatch, policy, case, half_open
):
    # Regression: the half-open device's copy of request 0 loses the
    # hedge and is cancelled.  It used to keep the probe slot, so the
    # breaker refused the device for every later request.
    ran = []
    execute = FleetDevice.execute

    def recording(device, model, rid, dispatch_ms):
        ran.append((device.name, rid))
        return execute(device, model, rid, dispatch_ms)

    monkeypatch.setattr(FleetDevice, "execute", recording)
    outcome = json.loads(route_grid(False, policy, case))["outcomes"][0]
    assert outcome["hedge_cancelled"] and outcome["device"] != half_open
    assert (half_open, 0) in ran
    assert any(name == half_open and rid > 0 for name, rid in ran)


def _queries(device: FleetDevice, t: float) -> str:
    return repr((
        device.status(t),
        device.partitioned(t),
        device.brownout_factor(t),
        device.next_downtime_edge(t),
        device.probe(t),
        device.service_ms("m0", 7, t),
    ))


#: Three overlapping brownouts whose factors multiply to different
#: doubles in different orders (1.3 * 1.9 * 2.7 = 6.669 left to right,
#: 6.6690000000000005 right to left).
BROWNOUT_ORDER = [
    (FaultKind.THERMAL_BROWNOUT, "dev0", start, 500.0, 1, amplitude)
    for start, amplitude in ((0.0, 1.3), (100.0, 1.9), (200.0, 2.7))
]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    drawn=windows(("dev0", "dev1"), 2000.0),
    warm_failover=st.booleans(),
    extra=st.lists(st.floats(-10.0, 5000.0, allow_nan=False),
                   max_size=5),
)
@example(drawn=BROWNOUT_ORDER, warm_failover=True, extra=[])
def test_device_queries_match_the_reference_at_every_edge(
    drawn, warm_failover, extra
):
    layout = [({"m0": ([4.0, 1.0], True)}, {})]
    live, = make_fleet(FleetDevice, layout, seed=1, jitter=0.05)
    ref, = make_fleet(ReferenceFleetDevice, layout, seed=1, jitter=0.05)
    plan = [
        DeviceFaultWindow(
            kind=kind, device=device, start_ms=start,
            end_ms=start + length, severity=severity,
            scenario=f"w{i}", amplitude=amplitude,
        )
        for i, (kind, device, start, length, severity, amplitude)
        in enumerate(drawn)
    ]
    live.plan_outages(plan, warm_failover=warm_failover)
    ref.plan_outages(plan, warm_failover=warm_failover)
    edges = {x for w in plan for x in (w.start_ms, w.end_ms)}
    edges |= {x for span in ref._downtime for x in span}
    times = set(extra) | {-math.inf, math.inf}
    for e in edges:
        times |= {e, math.nextafter(e, -math.inf),
                  math.nextafter(e, math.inf)}
    for t in sorted(times):
        assert _queries(live, t) == _queries(ref, t), t


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kwargs=traffic_kwargs(max_s=1.5, max_rps=800.0),
       caches=st.booleans())
def test_traffic_schedules_match_the_reference(kwargs, caches):
    with nullcontext() if caches else caches_disabled():
        live = TrafficModel(**kwargs).generate()
        ref = ReferenceTrafficModel(**kwargs).generate()
    assert json.dumps([r.to_dict() for r in live]) == json.dumps(
        [r.to_dict() for r in ref]
    )


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("hedging", [True, False])
def test_half_open_probes_match_the_reference(policy, hedging):
    # Health checks muted, a partition on dev2 for the first 600 ms: its
    # breaker opens, half-opens every 40 ms, fails its probes and
    # closes once the partition heals.
    layout = [({"m0": ([6.0], True)}, {}) for _ in range(3)]
    case = dict(
        layout=layout, seed=3, jitter=0.05,
        traffic=dict(duration_s=1.0, base_rps=300.0, models={"m0": 1.0},
                     burst_prob=0.2, deadline_ms=20.0, seed=5),
        plan=FaultPlan(
            scenarios=[FaultScenario(
                kind=FaultKind.NETWORK_PARTITION, target="dev2",
                start_s=0.0, duration_s=0.6, severity=2,
            )],
            name="partition",
        ),
        resilient=True, caches=True,
        router=dict(health_period_ms=1e9, breaker_open_ms=40.0,
                    breaker_failure_threshold=1, rpc_timeout_ms=10.0,
                    hedging=hedging, hedge_budget=0.2),
        degradation=dict(enabled=False),
    )
    live = run_case(False, policy, case)
    assert '"to": "half_open"' in live
    assert first_difference(live, run_case(True, policy, case)) is None
