"""Circuit-breaker state machine: closed -> open -> half-open -> ..."""

from __future__ import annotations

import pytest

from repro.serving.fleet import BreakerState, CircuitBreaker


def make_breaker(**kwargs) -> CircuitBreaker:
    defaults = dict(failure_threshold=3, open_ms=400.0)
    defaults.update(kwargs)
    return CircuitBreaker("dev0", **defaults)


class TestTransitions:
    def test_starts_closed_and_allows(self):
        b = make_breaker()
        assert b.state is BreakerState.CLOSED
        assert b.allow(0.0)

    def test_opens_at_failure_threshold(self):
        b = make_breaker(failure_threshold=3)
        b.record_failure(10.0)
        b.record_failure(20.0)
        assert b.state is BreakerState.CLOSED
        b.record_failure(30.0)
        assert b.state is BreakerState.OPEN
        assert not b.allow(30.0)
        assert not b.allow(30.0 + 399.9)

    def test_success_resets_failure_streak(self):
        b = make_breaker(failure_threshold=3)
        b.record_failure(1.0)
        b.record_failure(2.0)
        b.record_success(3.0)
        b.record_failure(4.0)
        b.record_failure(5.0)
        assert b.state is BreakerState.CLOSED

    def test_open_timer_elapses_to_half_open(self):
        b = make_breaker(failure_threshold=1, open_ms=100.0)
        b.record_failure(0.0)
        assert b.state is BreakerState.OPEN
        # The router's allow() inquiry is the probe opportunity.
        assert b.allow(100.0)
        assert b.state is BreakerState.HALF_OPEN

    def test_half_open_probe_success_closes(self):
        b = make_breaker(failure_threshold=1, open_ms=100.0)
        b.record_failure(0.0)
        assert b.allow(150.0)
        b.record_success(160.0)
        assert b.state is BreakerState.CLOSED
        assert b.allow(161.0)

    def test_half_open_probe_failure_reopens_with_timer_reset(self):
        b = make_breaker(failure_threshold=1, open_ms=100.0)
        b.record_failure(0.0)
        assert b.allow(100.0)  # -> HALF_OPEN probe admitted
        b.record_failure(120.0)
        assert b.state is BreakerState.OPEN
        # Timer restarts from the probe failure, not the first open.
        assert not b.allow(219.9)
        assert b.allow(220.0)
        assert b.state is BreakerState.HALF_OPEN

    def test_half_open_probes_are_bounded(self):
        b = make_breaker(failure_threshold=1, open_ms=100.0,
                         half_open_probes=2)
        b.record_failure(0.0)
        assert b.allow(100.0)
        assert b.allow(100.0)
        assert not b.allow(100.0)  # third concurrent probe refused

    def test_released_probe_slot_admits_the_next_probe(self):
        b = make_breaker(failure_threshold=1, open_ms=100.0)
        b.record_failure(0.0)
        assert b.allow(100.0)
        assert not b.admits(101.0)
        b.release_probe()  # the probe's copy was cancelled
        assert b.state is BreakerState.HALF_OPEN
        assert b.admits(102.0) and b.allow(102.0)
        assert not b.allow(103.0)
        b.release_probe()
        b.release_probe()  # never below zero: one slot, not two
        assert b.allow(104.0) and not b.allow(105.0)

    def test_transition_log_records_full_cycle(self):
        b = make_breaker(failure_threshold=1, open_ms=100.0)
        b.record_failure(0.0)
        b.allow(100.0)
        b.record_success(110.0)
        assert [(f, to) for _, f, to in b.transitions] == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]
        doc = b.to_dict()
        assert doc["state"] == "closed"
        assert len(doc["transitions"]) == 3


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"failure_threshold": 0},
            {"open_ms": -1.0},
            {"half_open_probes": 0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            make_breaker(**kwargs)
