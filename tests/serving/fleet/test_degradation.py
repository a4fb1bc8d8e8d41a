"""Degradation ladder: attainment windows, hysteresis, dwell."""

from __future__ import annotations

import pytest

from repro.serving.fleet import (
    DegradationConfig,
    DegradationGovernor,
    FleetRequest,
)
from repro.serving.fleet.router import DispatchOutcome


class FakeDevice:
    def __init__(self, name):
        self.name = name
        self.level_bias = 0


def outcome(rid=0, deadline_met=True, shed=False):
    return DispatchOutcome(
        rid=rid, model="cnn", priority=1, ok=not shed, shed=shed,
        device="dev0", t_ms=0.0, completion_ms=10.0, latency_ms=10.0,
        deadline_met=deadline_met, dispatches=1, failures=0,
        hedged=False, hedge_cancelled=False,
    )


def request(priority):
    return FleetRequest(rid=0, t_ms=0.0, model="cnn",
                        priority=priority)


def make_governor(**kwargs):
    defaults = dict(window=4, min_dwell_ms=0.0)
    defaults.update(kwargs)
    devices = [FakeDevice("dev0"), FakeDevice("dev1")]
    return DegradationGovernor(devices, DegradationConfig(**defaults)), \
        devices


def feed(governor, count, deadline_met, t_ms=0.0):
    for i in range(count):
        governor.observe(outcome(rid=i, deadline_met=deadline_met),
                         now_ms=t_ms)


class TestLadder:
    def test_escalates_on_missed_windows_and_biases_devices(self):
        governor, devices = make_governor()
        feed(governor, 4, deadline_met=False)
        assert governor.level == 1
        assert devices[0].level_bias == 0  # level 1 sheds only
        feed(governor, 4, deadline_met=False)
        assert governor.level == 2
        assert all(d.level_bias == 1 for d in devices)
        feed(governor, 4, deadline_met=False)
        assert governor.level == 3
        assert all(d.level_bias == 2 for d in devices)
        feed(governor, 4, deadline_met=False)
        assert governor.level == 3  # clamped at max_level

    def test_recovers_one_level_per_clean_window(self):
        governor, devices = make_governor()
        feed(governor, 8, deadline_met=False)
        assert governor.level == 2
        feed(governor, 4, deadline_met=True)
        assert governor.level == 1
        assert all(d.level_bias == 0 for d in devices)
        feed(governor, 4, deadline_met=True)
        assert governor.level == 0

    def test_hysteresis_band_holds_the_level(self):
        governor, _ = make_governor(window=10, enter_below=0.85,
                                    exit_above=0.95)
        feed(governor, 10, deadline_met=False)
        assert governor.level == 1
        # 9/10 = 0.90 sits inside the (0.85, 0.95) hysteresis band.
        feed(governor, 9, deadline_met=True)
        feed(governor, 1, deadline_met=False)
        assert governor.level == 1

    def test_shed_floors_per_level(self):
        governor, _ = make_governor()
        assert not governor.should_shed(request(priority=0))
        feed(governor, 4, deadline_met=False)  # level 1
        assert governor.should_shed(request(priority=0))
        assert not governor.should_shed(request(priority=1))
        feed(governor, 8, deadline_met=False)  # level 3
        assert governor.should_shed(request(priority=1))
        assert not governor.should_shed(request(priority=2))

    def test_shed_outcomes_do_not_count_against_attainment(self):
        governor, _ = make_governor()
        feed(governor, 4, deadline_met=False)
        assert governor.level == 1
        # A wall of shed outcomes must not latch the ladder upward.
        for i in range(20):
            governor.observe(outcome(rid=i, shed=True), now_ms=0.0)
        assert governor.level == 1


class TestDwell:
    def test_moves_respect_the_dwell_time(self):
        governor, _ = make_governor(min_dwell_ms=250.0)
        feed(governor, 4, deadline_met=False, t_ms=0.0)
        assert governor.level == 1
        feed(governor, 4, deadline_met=False, t_ms=100.0)
        assert governor.level == 1  # within dwell: no move
        feed(governor, 4, deadline_met=False, t_ms=300.0)
        assert governor.level == 2

    def test_moves_are_recorded_for_the_report(self):
        governor, _ = make_governor()
        feed(governor, 4, deadline_met=False, t_ms=5.0)
        doc = governor.to_dict()
        assert doc["level"] == 1
        assert doc["moves"] == [
            {"t_ms": 5.0, "from": 0, "to": 1, "attainment": 0.0}
        ]


class TestDisabled:
    def test_disabled_governor_never_sheds_or_moves(self):
        governor, _ = make_governor(enabled=False)
        feed(governor, 20, deadline_met=False)
        assert governor.level == 0
        assert not governor.should_shed(request(priority=0))

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError, match="window"):
            make_governor(window=0)


class TestConfigValidation:
    @pytest.mark.parametrize("max_level", [-1, 4, 5])
    def test_rejects_levels_off_the_ladder(self, max_level):
        with pytest.raises(ValueError, match="max_level"):
            DegradationConfig(max_level=max_level)

    @pytest.mark.parametrize("max_level", [0, 1, 2, 3])
    def test_accepts_every_ladder_level(self, max_level):
        assert DegradationConfig(max_level=max_level).max_level == max_level
