"""Additional traffic-controller behavior tests."""

import pytest

from repro.apps.traffic import FineRecord, IntersectionController, SignalPlan


@pytest.fixture(scope="module")
def controller(farm):
    detector = farm.engine("detectnet_coco_dog", "NX", 0)
    return IntersectionController(
        detector, approaches=("a", "b"), seed=3
    )


class TestSignalPlanning:
    def test_budget_split_proportional(self, controller):
        plan = controller.plan_cycle({"a": 30, "b": 10})
        assert plan.green_seconds["a"] > plan.green_seconds["b"]

    def test_min_green_floor(self, controller):
        plan = controller.plan_cycle({"a": 1000, "b": 0})
        assert plan.green_seconds["b"] == pytest.approx(
            controller.min_green
        )

    def test_max_green_ceiling(self, controller):
        plan = controller.plan_cycle({"a": 1000, "b": 0})
        assert plan.green_seconds["a"] <= controller.max_green

    def test_custom_approaches(self, controller):
        queues = controller.measure_queues()
        assert set(queues) == {"a", "b"}


class TestSimulation:
    def test_heavier_arrivals_increase_wait(self, farm):
        detector = farm.engine("detectnet_coco_dog", "NX", 0)
        light = IntersectionController(detector, seed=5).simulate(
            cycles=5, arrival_rate=1.0
        )
        heavy = IntersectionController(detector, seed=5).simulate(
            cycles=5, arrival_rate=30.0
        )
        assert heavy.mean_wait_seconds >= light.mean_wait_seconds
        assert heavy.vehicles_served > light.vehicles_served

    def test_stats_accumulate(self, controller):
        stats = controller.simulate(cycles=3)
        assert stats.cycles == 3
        assert stats.vehicles_served >= 0


class TestFineRecords:
    def test_record_fields(self):
        fine = FineRecord(
            approach="north", frame_index=2, plate_class=17,
            confidence=0.4,
        )
        assert fine.approach == "north"
        assert fine.plate_class == 17

    def test_signal_plan_is_immutable(self):
        plan = SignalPlan(green_seconds={"a": 5.0}, cycle_seconds=5.0)
        with pytest.raises(Exception):
            plan.cycle_seconds = 10.0
