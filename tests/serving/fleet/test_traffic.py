"""Seeded traffic generator: determinism and shape."""

from __future__ import annotations

import pytest

from repro.serving.fleet import TrafficModel


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        a = TrafficModel(duration_s=2.0, seed=11).generate()
        b = TrafficModel(duration_s=2.0, seed=11).generate()
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]

    def test_different_seed_different_schedule(self):
        a = TrafficModel(duration_s=2.0, seed=11).generate()
        b = TrafficModel(duration_s=2.0, seed=12).generate()
        assert [r.to_dict() for r in a] != [r.to_dict() for r in b]

    def test_rids_are_dense_and_arrivals_sorted(self):
        requests = TrafficModel(duration_s=1.0, seed=3).generate()
        assert [r.rid for r in requests] == list(range(len(requests)))
        times = [r.t_ms for r in requests]
        assert times == sorted(times)
        assert all(0.0 <= t < 1000.0 for t in times)


class TestShape:
    def test_diurnal_envelope_swings_around_base(self):
        model = TrafficModel(
            duration_s=4.0, base_rps=100.0, diurnal_amplitude=0.5
        )
        assert model.rate_rps(1.0) == pytest.approx(150.0)  # peak
        assert model.rate_rps(3.0) == pytest.approx(50.0)  # trough
        flat = TrafficModel(duration_s=4.0, base_rps=100.0,
                            diurnal_amplitude=0.0)
        assert flat.rate_rps(1.0) == pytest.approx(100.0)

    def test_model_mix_respects_weights(self):
        model = TrafficModel(
            duration_s=4.0,
            base_rps=500.0,
            models={"heavy": 3.0, "light": 1.0},
            seed=5,
        )
        requests = model.generate()
        heavy = sum(1 for r in requests if r.model == "heavy")
        assert 0.6 < heavy / len(requests) < 0.9

    def test_priorities_and_deadline_carried(self):
        model = TrafficModel(
            duration_s=1.0,
            deadline_ms=33.0,
            priorities={0: 1.0, 2: 1.0},
            seed=1,
        )
        requests = model.generate()
        assert {r.priority for r in requests} <= {0, 2}
        assert all(r.deadline_ms == 33.0 for r in requests)

    def test_bursts_raise_request_volume(self):
        calm = TrafficModel(duration_s=4.0, burst_prob=0.0, seed=9)
        bursty = TrafficModel(
            duration_s=4.0, burst_prob=0.5, burst_mult=4.0, seed=9
        )
        assert len(bursty.generate()) > len(calm.generate())


class TestValidation:
    def test_rejects_nonpositive_duration_and_rate(self):
        with pytest.raises(ValueError):
            TrafficModel(duration_s=0.0)
        with pytest.raises(ValueError):
            TrafficModel(base_rps=0.0)

    def test_default_model_mix_is_filled_in(self):
        assert TrafficModel().models == {"model0": 1.0}


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"duration_s": float("nan")}, "duration_s"),
            ({"duration_s": float("inf")}, "duration_s"),
            ({"base_rps": float("nan")}, "base_rps"),
            ({"base_rps": float("inf")}, "base_rps"),
            ({"diurnal_amplitude": 1.5}, "diurnal_amplitude"),
            ({"diurnal_amplitude": float("nan")}, "diurnal_amplitude"),
            ({"burst_mult": -1.0}, "burst_mult"),
            ({"burst_mult": float("nan")}, "burst_mult"),
            ({"models": {"a": 0.0}}, "models"),
            ({"models": {"a": -1.0, "b": 2.0}}, "models"),
            ({"models": {"a": float("nan")}}, "models"),
            ({"models": {"a": float("inf")}}, "models"),
            ({"priorities": {0: 0.0, 1: 0.0}}, "priorities"),
            ({"priorities": {0: -1.0, 1: 1.0}}, "priorities"),
            ({"priorities": {}}, "priorities"),
        ],
    )
    def test_rejects_bad_values_naming_the_field(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            TrafficModel(**kwargs)
