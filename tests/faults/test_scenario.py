"""FaultScenario / FaultPlan declarations and JSON round-tripping."""

import json
import math

import pytest

from repro.faults import (
    CANNED_PLANS,
    FaultKind,
    FaultPlan,
    FaultScenario,
    canned_plan,
)


class TestFaultScenario:
    def test_defaults_are_always_active(self):
        s = FaultScenario(kind=FaultKind.THERMAL_THROTTLE)
        assert s.active_at(0.0)
        assert s.active_at(1e9)
        assert s.probability == 1.0
        assert s.name == "thermal_throttle"

    def test_window_bounds_are_half_open(self):
        s = FaultScenario(
            kind=FaultKind.OOM, start_s=1.0, duration_s=0.5
        )
        assert not s.active_at(0.99)
        assert s.active_at(1.0)
        assert s.active_at(1.49)
        assert not s.active_at(1.5)

    @pytest.mark.parametrize("severity", [0, 6, -1])
    def test_severity_out_of_range_rejected(self, severity):
        with pytest.raises(ValueError, match="severity"):
            FaultScenario(kind=FaultKind.OOM, severity=severity)

    @pytest.mark.parametrize("probability", [-0.1, 1.5])
    def test_probability_out_of_range_rejected(self, probability):
        with pytest.raises(ValueError, match="probability"):
            FaultScenario(kind=FaultKind.OOM, probability=probability)

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            FaultScenario(kind=FaultKind.OOM, start_s=-1.0)

    @pytest.mark.parametrize(
        "field, make",
        [
            ("start_s", lambda: FaultScenario(
                kind=FaultKind.DEVICE_CRASH, start_s=math.nan)),
            ("start_s", lambda: FaultScenario(
                kind=FaultKind.OOM, start_s=math.inf)),
            ("duration_s", lambda: FaultScenario(
                kind=FaultKind.DEVICE_CRASH, duration_s=math.nan)),
            ("amplitude", lambda: FaultScenario(
                kind=FaultKind.KERNEL_HANG, amplitude=math.nan)),
            ("amplitude", lambda: FaultScenario(
                kind=FaultKind.THERMAL_THROTTLE, amplitude=-math.inf)),
            # Python's json reads a bare NaN, so a plan file can carry one.
            ("amplitude", lambda: FaultPlan.from_dict(json.loads(
                '{"scenarios": [{"kind": "kernel_hang", "amplitude": NaN}]}'
            ))),
        ],
        ids=[
            "nan_start", "inf_start", "nan_duration", "nan_amplitude",
            "inf_amplitude", "nan_amplitude_from_json",
        ],
    )
    def test_non_finite_window_or_amplitude_rejected(self, field, make):
        with pytest.raises(ValueError, match=field):
            make()

    def test_round_trip_preserves_fields(self):
        s = FaultScenario(
            kind=FaultKind.MEMCPY_STALL,
            start_s=0.25,
            duration_s=2.0,
            probability=0.3,
            severity=4,
            target="conv*",
            name="stalls",
            amplitude=3.5,
        )
        assert FaultScenario.from_dict(s.to_dict()) == s

    def test_round_trip_infinite_duration(self):
        s = FaultScenario(kind=FaultKind.COMPUTE_NAN)
        doc = s.to_dict()
        assert "duration_s" not in doc  # inf is the JSON-side default
        assert FaultScenario.from_dict(doc).duration_s == math.inf

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultScenario.from_dict({"kind": "meteor_strike"})


class TestFaultPlan:
    def test_duplicate_scenario_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            FaultPlan(
                scenarios=[
                    FaultScenario(kind=FaultKind.OOM),
                    FaultScenario(kind=FaultKind.OOM),
                ]
            )

    def test_file_round_trip(self, tmp_path):
        plan = FaultPlan(
            scenarios=[
                FaultScenario(kind=FaultKind.THERMAL_THROTTLE, severity=3),
                FaultScenario(
                    kind=FaultKind.OOM, start_s=0.5, amplitude=0.9
                ),
            ],
            seed=42,
            name="campaign",
        )
        path = tmp_path / "plan.json"
        plan.save(path)
        loaded = FaultPlan.load(path)
        assert loaded == plan

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="cannot read"):
            FaultPlan.load(path)

    def test_load_rejects_wrong_shape(self, tmp_path):
        path = tmp_path / "shape.json"
        path.write_text('{"seed": 1}')
        with pytest.raises(ValueError, match="scenarios"):
            FaultPlan.load(path)


class TestCannedPlans:
    @pytest.mark.parametrize("name", sorted(CANNED_PLANS))
    def test_every_canned_plan_constructs_and_round_trips(self, name):
        plan = canned_plan(name, seed=7)
        assert plan.seed == 7
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_unknown_name_lists_options(self):
        with pytest.raises(ValueError, match="thermal_oom"):
            canned_plan("nope")

    def test_acceptance_scenario_combines_thermal_and_oom(self):
        plan = canned_plan("thermal_oom")
        kinds = {s.kind for s in plan.scenarios}
        assert kinds == {FaultKind.THERMAL_THROTTLE, FaultKind.OOM}
