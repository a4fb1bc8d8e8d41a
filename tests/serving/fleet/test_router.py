"""FleetRouter: policy ranking, redispatch, hedge accounting."""

from __future__ import annotations

import pytest

from repro.engine.builder import BuilderConfig
from repro.faults.events import FaultKind
from repro.serving.fleet import (
    BreakerState,
    DeviceFaultWindow,
    FleetRequest,
    FleetRouter,
    RouterConfig,
    make_policy,
)

from tests.conftest import make_small_cnn
from tests.serving.fleet.conftest import make_device


def request(rid=0, t_ms=0.0, deadline_ms=20.0, priority=1):
    return FleetRequest(
        rid=rid, t_ms=t_ms, model="cnn", priority=priority,
        deadline_ms=deadline_ms,
    )


def crash_window(device, start_ms, end_ms, severity=2):
    return DeviceFaultWindow(
        kind=FaultKind.DEVICE_CRASH,
        device=device,
        start_ms=start_ms,
        end_ms=end_ms,
        severity=severity,
        scenario="s",
    )


def partition_window(device, start_ms, end_ms):
    return DeviceFaultWindow(
        kind=FaultKind.NETWORK_PARTITION,
        device=device,
        start_ms=start_ms,
        end_ms=end_ms,
        severity=1,
        scenario="s",
    )


class TestPolicies:
    def test_least_loaded_prefers_the_empty_queue(self, trio):
        trio[0].busy_until_ms = 30.0
        trio[1].busy_until_ms = 5.0
        ranked = make_policy("least-loaded").rank(trio, request(), 0.0)
        assert [d.name for d in ranked] == ["dev2", "dev1", "dev0"]

    def test_round_robin_rotates_the_pivot(self, trio):
        policy = make_policy("round-robin")
        first = policy.rank(trio, request(), 0.0)
        second = policy.rank(trio, request(), 0.0)
        assert [d.name for d in first] == ["dev0", "dev1", "dev2"]
        assert [d.name for d in second] == ["dev1", "dev2", "dev0"]

    def test_latency_aware_learns_from_observations(self, trio):
        policy = make_policy("latency-aware")
        policy.observe("dev0", 40.0, ok=True)
        policy.observe("dev1", 5.0, ok=True)
        policy.observe("dev2", 80.0, ok=False)  # failures ignored
        ranked = policy.rank(trio, request(), 0.0)
        assert [d.name for d in ranked] == ["dev2", "dev1", "dev0"]

    def test_engine_affinity_prefers_warm_devices(self, trio):
        trio[0]._warm["cnn"] = False
        policy = make_policy("engine-affinity")
        ranked = policy.rank(trio, request(), 0.0)
        assert ranked[-1].name == "dev0"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown routing policy"):
            make_policy("coin-flip")


class TestDispatch:
    def test_clean_dispatch_meets_deadline(self, trio):
        router = FleetRouter(trio, make_policy("least-loaded"))
        outcome = router.route(request(deadline_ms=20.0))
        assert outcome.ok and outcome.deadline_met
        assert outcome.latency_ms == pytest.approx(10.0)
        assert outcome.dispatches == 1 and not outcome.hedged

    def test_crashed_device_fails_fast_and_redispatches(self, trio):
        trio[0].plan_outages([crash_window("dev0", 0.0, 5000.0)],
                             warm_failover=False)
        router = FleetRouter(trio, make_policy("least-loaded"))
        outcome = router.route(request(deadline_ms=30.0))
        assert outcome.ok
        assert outcome.device != "dev0"
        assert outcome.failures == 1  # the refused first attempt
        assert outcome.dispatches == 2

    def test_partition_burns_rpc_timeout_before_redispatch(self, trio):
        trio[0].plan_outages([partition_window("dev0", 0.0, 5000.0)])
        config = RouterConfig(rpc_timeout_ms=60.0, hedging=False)
        router = FleetRouter(trio, make_policy("least-loaded"), config)
        outcome = router.route(request(deadline_ms=200.0))
        assert outcome.ok
        # 60 ms lost in the partition, then 10 ms of real service.
        assert outcome.latency_ms == pytest.approx(70.0)

    def test_baseline_router_routes_into_the_black_hole(self, trio):
        trio[0].plan_outages([crash_window("dev0", 0.0, 5000.0)],
                             warm_failover=False)
        config = RouterConfig(resilient=False)
        router = FleetRouter(trio, make_policy("least-loaded"), config)
        router.tick(0.0)
        outcomes = [router.route(request(rid=i, t_ms=float(i)))
                    for i in range(6)]
        # No health view, no redispatch: dev0 keeps an empty queue and
        # least-loaded keeps picking it — every request dies there.
        assert all(not o.ok and o.device == "dev0" for o in outcomes)

    def test_resilient_router_evicts_the_black_hole(self, trio):
        trio[0].plan_outages([crash_window("dev0", 0.0, 5000.0)],
                             warm_failover=False)
        router = FleetRouter(trio, make_policy("least-loaded"))
        router.tick(0.0)  # heartbeat round sees the refusal
        outcomes = [router.route(request(rid=i, t_ms=float(i),
                                         deadline_ms=100.0))
                    for i in range(6)]
        assert all(o.ok and o.device != "dev0" for o in outcomes)

    def test_breaker_opens_after_repeated_failures(self, trio):
        trio[0].plan_outages([crash_window("dev0", 0.0, 5000.0)],
                             warm_failover=False)
        config = RouterConfig(health_period_ms=1e9)  # heartbeats muted
        router = FleetRouter(trio, make_policy("least-loaded"), config)
        for i in range(3):
            router.route(request(rid=i, t_ms=float(i),
                                 deadline_ms=100.0))
        assert router.breakers["dev0"].state is BreakerState.OPEN
        # With the breaker open dev0 is no longer even attempted.
        outcome = router.route(request(rid=9, t_ms=9.0,
                                       deadline_ms=100.0))
        assert outcome.failures == 0

    def test_in_flight_loss_when_device_dies_mid_service(self, trio):
        trio[0].plan_outages([crash_window("dev0", 5.0, 5000.0)],
                             warm_failover=False)
        config = RouterConfig(hedging=False)
        router = FleetRouter(trio, make_policy("least-loaded"), config)
        outcome = router.route(request(deadline_ms=100.0))
        # dev0 accepted at t=0 but dies at t=5 before finishing at 10:
        # the work is lost and the router redispatches from t=5.
        assert outcome.ok and outcome.device != "dev0"
        assert outcome.failures == 1
        assert outcome.latency_ms == pytest.approx(15.0)
        assert trio[0].busy_until_ms == 5.0  # queue released


class TestHedging:
    def test_hedge_fires_loser_cancelled_one_serve(self, trio):
        # Primary wins: A (dev0) busy until 12 -> done at 22, past the
        # 20 ms deadline and the 10 ms hedge point; hedge goes to B
        # (dev1, busy until 30) -> done at 40.  A's response lands
        # first; B's copy is cancelled and its queue time returned.
        a, b, c = trio
        a.busy_until_ms = 12.0
        b.busy_until_ms = 30.0
        c.busy_until_ms = 35.0
        router = FleetRouter(trio, make_policy("least-loaded"))
        outcome = router.route(request(deadline_ms=20.0))
        assert outcome.ok
        assert outcome.device == "dev0"
        assert outcome.completion_ms == pytest.approx(22.0)
        assert outcome.hedged and outcome.hedge_cancelled
        assert outcome.dispatches == 2
        assert router.hedges_fired == 1
        assert router.hedge_cancels == 1
        # Exactly ONE terminal outcome: the serve is not double-counted.
        assert len(router.outcomes) == 1
        # The loser's queue reverts to its pre-hedge state.
        assert b.busy_until_ms == pytest.approx(30.0)
        assert a.busy_until_ms == pytest.approx(22.0)

    def test_hedge_backup_wins_and_primary_is_cancelled(self, trio):
        a, b, _ = trio
        a.busy_until_ms = 50.0
        b.busy_until_ms = 0.0
        router = FleetRouter(trio, make_policy("round-robin"))
        outcome = router.route(request(deadline_ms=20.0))
        # Round-robin picks A first (done at 60); the hedge copy on
        # the next-ranked free device finishes at 20 and wins.
        assert outcome.ok
        assert outcome.device != "dev0"
        assert outcome.completion_ms == pytest.approx(20.0)
        assert outcome.deadline_met
        assert outcome.hedged and outcome.hedge_cancelled
        assert a.busy_until_ms == pytest.approx(50.0)  # copy cancelled

    def test_no_hedge_when_projection_meets_deadline(self, trio):
        router = FleetRouter(trio, make_policy("least-loaded"))
        outcome = router.route(request(deadline_ms=20.0))
        assert outcome.ok and not outcome.hedged
        assert router.hedges_fired == 0

    def test_hedge_budget_caps_the_hedge_rate(self, trio):
        for device in trio:
            device.busy_until_ms = 1000.0  # every request will be late
        config = RouterConfig(hedge_budget=0.02, max_redispatch=0)
        router = FleetRouter(trio, make_policy("least-loaded"), config)
        for i in range(100):
            router.route(request(rid=i, t_ms=float(i)))
        assert router.hedges_fired <= 3  # ~2% of 100, not 100

    def test_hedging_disabled_in_baseline_mode(self, trio):
        trio[0].busy_until_ms = 100.0
        config = RouterConfig(resilient=False)
        router = FleetRouter(trio, make_policy("least-loaded"), config)
        for i in range(10):
            router.route(request(rid=i, t_ms=float(i)))
        assert router.hedges_fired == 0


class TestShed:
    def test_shed_is_a_terminal_non_serve(self, trio):
        router = FleetRouter(trio, make_policy("least-loaded"))
        outcome = router.shed(request(priority=0), now_ms=5.0)
        assert outcome.shed and not outcome.ok
        assert outcome.dispatches == 0
        assert outcome.cause == "shed"
        assert len(router.outcomes) == 1


class TestHalfOpenProbe:
    def test_probe_slot_is_taken_only_by_the_dispatched_device(self):
        # dev2's breaker opens at t=0 and its timer elapses at t=100.
        # Round-robin ranks another device first for the request at
        # t=220, so the candidate filter must not hold dev2's only probe
        # slot: a held slot is never released (nothing is sent, so no
        # success or failure is recorded) and dev2 would refuse every
        # later request for the rest of the run.
        trio = [
            make_device(f"dev{i}", base_ms=10.0, with_fallback=False)
            for i in range(3)
        ]
        config = RouterConfig(health_period_ms=1e9, breaker_open_ms=100.0)
        router = FleetRouter(trio, make_policy("round-robin"), config)
        for _ in range(3):
            router.breakers["dev2"].record_failure(0.0)
        assert router.breakers["dev2"].state is BreakerState.OPEN
        router.route(request(rid=0, t_ms=50.0, deadline_ms=100.0))
        outcomes = [
            router.route(request(rid=1 + i, t_ms=220.0 + 20.0 * i,
                                 deadline_ms=100.0))
            for i in range(399)
        ]
        assert all(o.ok for o in outcomes)
        served = sum(1 for o in outcomes if o.device == "dev2")
        assert served == 133
        assert router.breakers["dev2"].state is BreakerState.CLOSED

    def test_admits_flips_an_elapsed_breaker_without_taking_the_probe(self):
        breaker = FleetRouter(
            [make_device("dev0", base_ms=10.0, with_fallback=False)],
            make_policy("least-loaded"),
            RouterConfig(breaker_open_ms=100.0),
        ).breakers["dev0"]
        for _ in range(3):
            breaker.record_failure(0.0)
        assert not breaker.admits(99.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.admits(100.0)
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.transitions[-1][0] == 100.0
        assert breaker.admits(150.0)  # still free: admits took nothing
        assert breaker.allow(150.0)  # the dispatch takes the slot
        assert not breaker.admits(160.0)
        assert not breaker.allow(160.0)


class TestServingDevices:
    def test_a_model_installed_after_routing_starts_is_routed(self):
        # The router lists each model's serving devices once; an
        # install after that, on any device, must list them again.
        pair = [
            make_device(f"dev{i}", base_ms=10.0, with_fallback=False)
            for i in range(2)
        ]
        router = FleetRouter(pair, make_policy("round-robin"))

        def other(rid, t_ms):
            return FleetRequest(
                rid=rid, t_ms=t_ms, model="other", priority=1,
                deadline_ms=100.0,
            )

        def install_other(device):
            device.install(
                "other", network=make_small_cnn(seed=1),
                builder_config=BuilderConfig(seed=0),
            )

        assert router.route(other(0, 0.0)).cause == "no-device"
        install_other(pair[0])
        assert router.route(other(1, 50.0)).device == "dev0"
        install_other(pair[1])
        served = {
            router.route(other(2 + i, 100.0 + 50.0 * i)).device
            for i in range(2)
        }
        assert served == {"dev0", "dev1"}


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"max_redispatch": -1}, "max_redispatch"),
            ({"max_redispatch": -3}, "max_redispatch"),
        ],
    )
    def test_rejects_bad_values_naming_the_field(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            RouterConfig(**kwargs)
