"""Fleet oracle: the fleet's compiled fault timelines and
allocation-light routing must give byte-identical reports, event logs
and end states to the scan-based reference of
:mod:`tests.serving.fleet.reference_fleet`.

Tier-1 runs generated small fleets (``tests/serving/fleet/
test_fleet_oracle.py``); CI runs the committed experiments::

    PYTHONPATH=src python -m tests.serving.fleet.fleet_oracle

* the CI chaos compare: ``4xNX+2xAGX``, resnet18 with an mtcnn
  fallback, 230 MHz, ``fleet_chaos`` at seed 7, resilient and blind;
* ``fleet_none``, ``fleet_chaos``, ``fleet_cold_reboot`` and
  ``fleet_brownout`` × all four policies × seeds {3, 7}, resilient and
  blind, on the same fleet with every outcome recorded, together with
  each device's final queue, warm set and cold loads and every breaker
  and health state;
* the six-model ``2xNX`` placement compare.

Exits 1 on any differing byte.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.analysis.engines import EngineFarm
from repro.analysis.fleet import (
    build_fleet,
    compare_placement,
    compare_resilience,
    default_traffic,
)
from repro.engine.store import EngineStore
from repro.faults import canned_fleet_plan
from repro.serving.fleet import POLICIES, FleetSimulator

from tests.serving.fleet.reference_fleet import reference_classes

SPEC = "4xNX+2xAGX"
MODELS = ("resnet18",)
FALLBACKS = ("mtcnn",)
CLOCK_MHZ = 230.0
UTILIZATION = 0.8
DURATION_S = 4.0
SCENARIOS = ("fleet_none", "fleet_chaos", "fleet_cold_reboot",
             "fleet_brownout")
PLACEMENT_MODELS = ("vgg16", "alexnet", "pednet", "googlenet",
                    "mobilenet_v1", "mtcnn")


def router_state(router: Any, devices: Sequence[Any]) -> Dict[str, Any]:
    """The end state of every device, breaker and health view, the
    router's counters and the policy's memory."""
    policy = router.policy
    return {
        "devices": [
            {
                "name": d.name,
                "busy_until_ms": d.busy_until_ms,
                "cold_loads": d.cold_loads,
                "level_bias": d.level_bias,
                "warm": sorted(d._warm.items()),
            }
            for d in devices
        ],
        "breakers": {
            name: {
                **b.to_dict(),
                "failures": b._failures,
                "opened_until_ms": b._opened_until_ms,
                "probes_in_flight": b._probes_in_flight,
            }
            for name, b in sorted(router.breakers.items())
        },
        "health": {
            **router.health.to_dict(),
            "misses": router.health._misses,
            "next_beat_ms": router.health._next_beat_ms,
        },
        "router": {
            "hedges_fired": router.hedges_fired,
            "hedge_cancels": router.hedge_cancels,
            "routed": router.routed,
            "outcomes": len(router.outcomes),
        },
        "policy": {
            "turn": getattr(policy, "_turn", None),
            "ewma": sorted(getattr(policy, "_ewma", {}).items()),
        },
    }


def fleet_state(sim: FleetSimulator, report: Any) -> str:
    """A run's report (outcomes included when recorded), the end state
    of :func:`router_state` and the governor's, as one JSON document
    (floats print with ``repr``, so equal documents mean equal bits)."""
    doc = {
        "report": report.to_dict(),
        **router_state(sim.router, sim.devices),
        "governor": {
            "level": sim.governor.level,
            "hits": sim.governor._window_hits,
            "seen": sim.governor._window_seen,
        },
    }
    return json.dumps(doc, sort_keys=True)


def first_difference(live: str, ref: str) -> Optional[str]:
    """None when equal, else where the two documents first differ."""
    if live == ref:
        return None
    i = next(
        (i for i, (x, y) in enumerate(zip(live, ref)) if x != y),
        min(len(live), len(ref)),
    )
    lo = max(0, i - 80)
    return (
        f"byte {i}: live ...{live[lo:i + 40]!r} != "
        f"reference ...{ref[lo:i + 40]!r}"
    )


def both(run: Callable[[], str]) -> List[str]:
    """``run()`` on the live classes, then on the reference."""
    live = run()
    with reference_classes():
        ref = run()
    return [live, ref]


def plan_case(
    farm: EngineFarm, scenario: str, policy: str, seed: int,
    resilient: bool,
) -> Callable[[], str]:
    """One canned-plan run of the CI fleet, as its :func:`fleet_state`."""
    import repro.analysis.fleet as fleet

    def run() -> str:
        devices = build_fleet(
            SPEC, MODELS, FALLBACKS, farm=farm, seed=seed,
            clock_mhz=CLOCK_MHZ,
        )
        traffic = default_traffic(
            devices, duration_s=DURATION_S, utilization=UTILIZATION,
            seed=seed,
        )
        sim_cls = fleet.FleetSimulator  # the reference inside both()
        sim = sim_cls(
            devices, traffic, policy=policy,
            plan=canned_fleet_plan(scenario, seed=seed),
            resilient=resilient, record_outcomes=True,
        )
        return fleet_state(sim, sim.run())

    return run


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m " + __spec__.name)
    parser.add_argument("--seeds", default="3,7")
    parser.add_argument("--policies", default=",".join(POLICIES))
    parser.add_argument("--scenarios", default=",".join(SCENARIOS))
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="fleet-oracle-") as root:
        farm = EngineFarm(pretrained=False, store=EngineStore(root))
        return run_cases(farm, args)


def run_cases(farm: EngineFarm, args: argparse.Namespace) -> int:
    """Every case on both sides; 1 if any document differs."""
    seeds = [int(s) for s in args.seeds.split(",")]
    policies = args.policies.split(",")
    scenarios = args.scenarios.split(",")

    def chaos() -> str:
        return compare_resilience(
            SPEC, models=MODELS, fallbacks=FALLBACKS,
            plan=canned_fleet_plan("fleet_chaos", seed=7),
            utilization=UTILIZATION, seed=7, farm=farm,
            clock_mhz=CLOCK_MHZ,
        ).to_json()

    def placement() -> str:
        return compare_placement(
            spec="2xNX", models=PLACEMENT_MODELS, seed=7,
            utilization=0.95, deadline_slack=4.0, farm=farm,
        ).to_json()

    cases: List[Any] = [
        ("chaos compare", chaos), ("placement compare", placement),
    ]
    for scenario in scenarios:
        for policy in policies:
            for seed in seeds:
                for resilient in (True, False):
                    name = (
                        f"{scenario} {policy} seed={seed} "
                        f"{'resilient' if resilient else 'blind'}"
                    )
                    cases.append((name, plan_case(
                        farm, scenario, policy, seed, resilient,
                    )))

    # A warm restore re-acquires the ladder from the shared store: its
    # price depends on whether the store already holds it, so both
    # sides must see a warm store.  One chaos run warms it.
    plan_case(farm, "fleet_chaos", "least-loaded", 7, True)()
    failures = 0
    start = time.perf_counter()
    for name, run in cases:
        live, ref = both(run)
        diff = first_difference(live, ref)
        status = "ok" if diff is None else f"DIFFERS: {diff}"
        print(f"{name}: {len(live)} bytes, {status}", flush=True)
        failures += diff is not None
    print(
        f"{len(cases)} cases, {failures} differing, "
        f"{time.perf_counter() - start:.1f} s"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
