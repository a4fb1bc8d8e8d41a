"""Fleet simulation end-to-end: determinism, equivalence, the gate."""

from __future__ import annotations

import pytest

from repro.analysis.engines import EngineFarm
from repro.analysis.fleet import (
    build_fleet,
    compare_resilience,
    default_traffic,
    fleet_capacity_rps,
    parse_fleet_spec,
    run_fleet,
)
from repro.engine.store import EngineStore
from repro.faults import fleet_chaos_plan, fleet_zero_fault_plan


@pytest.fixture(scope="module")
def farm(tmp_path_factory):
    """A store-backed farm shared by every run in this module (warm
    failover armed; engines build once)."""
    store = EngineStore(tmp_path_factory.mktemp("fleet-store"))
    return EngineFarm(pretrained=False, store=store)


SPEC = "2xNX+1xAGX"


def small_run(farm, seed=7, resilient=True, plan=None, duration_s=1.0,
              utilization=0.5):
    devices = build_fleet(SPEC, farm=farm, seed=seed, clock_mhz=230.0)
    traffic = default_traffic(devices, duration_s=duration_s,
                              utilization=utilization, seed=seed)
    if plan is None:
        plan = fleet_chaos_plan(seed=seed)
    return run_fleet(devices, traffic, plan=plan, resilient=resilient)


class TestSpec:
    def test_parse_fleet_spec(self):
        assert parse_fleet_spec("4xNX+2xAGX") == [(4, "NX"), (2, "AGX")]
        with pytest.raises(ValueError):
            parse_fleet_spec("4 NX")
        with pytest.raises(ValueError):
            parse_fleet_spec("0xNX")

    def test_capacity_counts_every_device(self, farm):
        devices = build_fleet(SPEC, farm=farm)
        assert fleet_capacity_rps(devices) > 0.0
        assert len(devices) == 3
        assert [d.name for d in devices] == ["dev0", "dev1", "dev2"]


class TestDeterminism:
    def test_same_seed_byte_identical_reports(self, farm):
        a = small_run(farm, seed=7)
        b = small_run(farm, seed=7)
        assert a.to_json() == b.to_json()
        assert a.event_log == b.event_log
        assert a.event_log  # chaos plan leaves a control-plane trace

    def test_zero_fault_plan_is_bit_identical_and_quiet(self, farm):
        a = small_run(farm, seed=3, plan=fleet_zero_fault_plan(seed=3))
        b = small_run(farm, seed=3, plan=fleet_zero_fault_plan(seed=3))
        assert a.to_json() == b.to_json()
        assert a.failovers == 0
        assert not [ln for ln in a.event_log if " fault " in ln]

    def test_different_seed_changes_the_run(self, farm):
        a = small_run(farm, seed=7)
        b = small_run(farm, seed=8)
        assert a.to_json() != b.to_json()


class TestZeroFaultEquivalence:
    def test_resilience_is_free_when_nothing_fails(self, farm):
        """Satellite 3: on a healthy fleet the resilient router makes
        identical decisions to the blind one — the whole stack only
        costs something when faults arrive."""
        plan = fleet_zero_fault_plan(seed=5)
        kwargs = dict(seed=5, plan=plan, utilization=0.3)
        resilient = small_run(farm, resilient=True, **kwargs)
        baseline = small_run(farm, resilient=False, **kwargs)
        r_doc = resilient.to_dict()
        b_doc = baseline.to_dict()
        assert r_doc.pop("resilient") is True
        assert b_doc.pop("resilient") is False
        assert r_doc == b_doc
        assert resilient.hedges == 0
        assert resilient.shed == 0


class TestChaosGate:
    def test_resilience_gains_2x_under_seeded_chaos(self):
        """The acceptance scenario: one crash + one partition over a
        six-device fleet; the resilience stack must at least double
        deadline attainment over the blind baseline."""
        comparison = compare_resilience(
            "4xNX+2xAGX",
            models=("resnet18",),
            fallbacks=("mtcnn",),
            plan=fleet_chaos_plan(seed=7),
            utilization=0.8,
            seed=7,
            clock_mhz=230.0,
        )
        resilient, baseline = comparison.resilient, comparison.baseline
        assert comparison.hit_rate_gain >= 2.0
        assert resilient.attainment > baseline.attainment
        # Warm failover fired: the crashed device's ladder came back
        # from the shared store instead of a cold rebuild.
        assert resilient.warm_failovers >= 1
        assert baseline.warm_failovers == 0
        assert resilient.failovers == baseline.failovers == 1
        # The blind fleet paid more device-seconds for less SLO.
        assert resilient.attainment / max(resilient.device_seconds, 1e-9) > (
            baseline.attainment / max(baseline.device_seconds, 1e-9)
        )
        # Both faced identical offered load.
        assert resilient.requests == baseline.requests
        doc = comparison.to_dict()
        assert doc["schema"] == "trtsim.fleet_comparison/1"
        assert "hit-rate gain" in comparison.slo_table()


class TestTelemetry:
    def test_fleet_spans_fold_into_metrics(self, farm):
        from repro import telemetry
        from repro.telemetry import PrometheusSink

        prom = PrometheusSink()
        with telemetry.session(prom):
            # 2 s so the chaos windows (crash at 1.0 s, partition at
            # 1.5 s) land mid-run and exercise the control plane.
            report = small_run(farm, seed=7, duration_s=2.0)
        text = prom.expose()
        assert "trtsim_fleet_requests_total" in text
        assert "trtsim_fleet_health_transitions_total" in text
        assert "trtsim_fleet_breaker_transitions_total" in text
        assert "trtsim_fleet_failovers_total" in text
        # The bus fold and the report count the same requests.
        routed = sum(
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("trtsim_fleet_requests_total")
        )
        assert routed == report.requests


class TestReportShape:
    def test_report_document_round_trips(self, farm):
        report = small_run(farm, seed=7)
        doc = report.to_dict()
        assert doc["schema"] == "trtsim.fleet_report/1"
        assert doc["requests"] == (
            doc["served"] + doc["failed"] + doc["shed"]
        )
        assert doc["deadline_hits"] + doc["deadline_misses"] == (
            doc["requests"]
        )
        assert set(doc["attainment_by_priority"]) <= {"0", "1", "2"}
        assert len(doc["devices"]) == 3
        assert doc["outcomes"] == []  # not recorded by default

    def test_record_outcomes_keeps_per_request_fates(self, farm):
        devices = build_fleet(SPEC, farm=farm, clock_mhz=230.0)
        traffic = default_traffic(devices, duration_s=0.5, seed=1)
        report = run_fleet(devices, traffic, record_outcomes=True)
        assert len(report.outcomes) == report.requests
        assert all("deadline_met" in o for o in report.outcomes)


class TestCallerConfigs:
    def test_a_run_leaves_the_callers_configs_unchanged(self, farm):
        from repro.serving.fleet import DegradationConfig, RouterConfig

        devices = build_fleet(SPEC, farm=farm, seed=7, clock_mhz=230.0)
        traffic = default_traffic(devices, duration_s=0.3, seed=7)
        router_config = RouterConfig()
        degradation = DegradationConfig()
        run_fleet(devices, traffic, resilient=False,
                  router_config=router_config, degradation=degradation)
        # A blind run must not switch off resilience or the ladder for
        # a later resilient run that reuses the same objects.
        assert router_config == RouterConfig()
        assert degradation == DegradationConfig()
