"""Smoke tests for the bench harness and the cost model's one-row
query."""

import json

import numpy as np
import pytest

from repro.analysis.bench import (
    SCHEMA,
    calibration_seconds,
    check_against_baseline,
    load_baseline,
    run_benchmarks,
)
from repro.analysis.engines import EngineFarm
from repro.caching import caches_disabled, clear_caches
from repro.hardware.cost import CostModel

from tests.hardware.reference_timeline import for_batch, kernel_cost


class TestKernelCostMemo:
    def test_memoized_cost_equals_uncached_exactly(self):
        # kernel_cost must return the *exact* breakdown of the scalar
        # reference formula — every field, not just total_us — with
        # caches on and off.
        clear_caches()
        farm = EngineFarm(pretrained=False)
        engine = farm.engine("googlenet", "NX")
        model = CostModel(engine.device)
        for binding in engine.bindings:
            workload = for_batch(binding.workload, 8)
            for kernel in binding.kernels:
                want = kernel_cost(
                    engine.device, kernel, workload, 921.6, sm_fraction=0.5
                )
                cached = model.kernel_cost(
                    kernel, workload, 921.6, sm_fraction=0.5
                )
                with caches_disabled():
                    plain = model.kernel_cost(
                        kernel, workload, 921.6, sm_fraction=0.5
                    )
                for got in (cached, plain):
                    assert [
                        got.launch_us, got.compute_us, got.bandwidth_us,
                        got.latency_us, got.total_us,
                    ] == [
                        want.launch_us, want.compute_us, want.bandwidth_us,
                        want.latency_us, want.total_us,
                    ]

    def test_distinct_keys_do_not_collide(self):
        clear_caches()
        farm = EngineFarm(pretrained=False)
        engine = farm.engine("googlenet", "NX")
        model = CostModel(engine.device)
        # Pick a convolution so the cost is compute-sensitive (a
        # bandwidth-bound copy kernel hides clock/SM changes in its
        # max(compute, bandwidth) term).
        binding = next(
            b for b in engine.bindings if b.workload.category == "conv"
        )
        kernel = binding.kernels[0]
        workload = binding.workload
        a = model.kernel_cost(kernel, workload, 921.6, sm_fraction=1.0)
        b = model.kernel_cost(kernel, workload, 921.6, sm_fraction=0.5)
        c = model.kernel_cost(kernel, workload, 460.8, sm_fraction=1.0)
        assert a.compute_us < b.compute_us
        assert a.compute_us < c.compute_us
        assert a != b and a != c and b != c


class TestBenchHarness:
    def test_quick_run_schema(self):
        result = run_benchmarks(reps=1, quick=True)
        assert result["schema"] == SCHEMA
        bench = result["benchmarks"]
        for key in (
            "timing_sweep_s",
            "timing_sweep_uncached_s",
            "build_googlenet_s",
        ):
            assert bench[key] > 0
        assert result["sweep_speedup_cached_vs_uncached"] > 1.0
        json.dumps(result)  # document must be serializable

    def test_calibration_positive(self):
        assert calibration_seconds(reps=1) > 0


class TestBaselineGate:
    def _result(self, speedup=6.0, calib=1.0):
        return {
            "schema": SCHEMA,
            "benchmarks": {},
            "calibration_s": calib,
            "sweep_speedup_cached_vs_uncached": speedup,
        }

    def _baseline(self, floor=5.0, tier1=40.0, calib=1.0):
        return {
            "schema": SCHEMA,
            "min_sweep_speedup": floor,
            "tier1_wall_seconds": tier1,
            "calibration_s": calib,
        }

    def test_proxy_speedup_below_floor_fails(self):
        check = check_against_baseline(self._result(3.0), self._baseline())
        assert not check.ok
        assert any("FAIL cached-vs-uncached" in m for m in check.messages)

    def test_seed_speedup_below_floor_fails(self):
        baseline = self._baseline()
        baseline["seed"] = {
            "benchmarks": {"timing_sweep_s": 0.012},
            "calibration_s": 1.0,
        }
        result = self._result()
        result["benchmarks"] = {"timing_sweep_s": 0.004}  # only 3x
        check = check_against_baseline(result, baseline)
        assert not check.ok
        assert any("FAIL timing sweep" in m for m in check.messages)
        assert result["sweep_speedup_vs_seed"] == pytest.approx(3.0)

    def test_seed_speedup_above_floor_passes(self):
        baseline = self._baseline()
        baseline["seed"] = {
            "benchmarks": {"timing_sweep_s": 0.024},
            "calibration_s": 1.0,
        }
        result = self._result()
        result["benchmarks"] = {"timing_sweep_s": 0.004}  # 6x
        check = check_against_baseline(result, baseline)
        assert check.ok, check.format_text()

    def test_wall_clock_regression_fails(self):
        check = check_against_baseline(
            self._result(), self._baseline(tier1=40.0), tier1_seconds=49.0
        )
        assert not check.ok

    def test_wall_clock_within_tolerance_passes(self):
        check = check_against_baseline(
            self._result(), self._baseline(tier1=40.0), tier1_seconds=47.9
        )
        assert check.ok

    def test_wall_clock_normalized_by_machine_speed(self):
        # A 2x slower machine (calibration 2x baseline) is allowed
        # proportionally more wall clock.
        check = check_against_baseline(
            self._result(calib=2.0),
            self._baseline(tier1=40.0, calib=1.0),
            tier1_seconds=90.0,
        )
        assert check.ok

    def test_committed_baseline_loads_and_gates(self):
        baseline = load_baseline("benchmarks/BASELINE_BENCH.json")
        assert baseline["schema"] == SCHEMA
        assert float(baseline["min_sweep_speedup"]) >= 5.0
        assert baseline["seed"]["benchmarks"]["timing_sweep_s"] > 0
        # The committed measurements must themselves pass both gates.
        result = {
            "schema": SCHEMA,
            "benchmarks": dict(baseline["benchmarks"]),
            "calibration_s": baseline["calibration_s"],
            "sweep_speedup_cached_vs_uncached": baseline[
                "sweep_speedup_cached_vs_uncached"
            ],
        }
        check = check_against_baseline(result, baseline)
        assert check.ok, check.format_text()
        assert result["sweep_speedup_vs_seed"] >= 5.0

    def test_load_baseline_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "b.json"
        bad.write_text(json.dumps({"schema": "other/1"}))
        with pytest.raises(ValueError):
            load_baseline(str(bad))


class TestTimingSweepSpeedup:
    def test_cached_sweep_beats_uncached(self):
        # The acceptance criterion measured properly lives in the bench
        # job; this smoke just asserts the caches actually engage.
        result = run_benchmarks(reps=2, quick=True)
        assert result["sweep_speedup_cached_vs_uncached"] > 2.0

    def test_sweep_timelines_match_cached_vs_uncached(self):
        from repro.engine.engine import ExecutionContext

        clear_caches()
        farm = EngineFarm(pretrained=False)
        engine = farm.engine("googlenet", "NX")
        ctx = ExecutionContext(engine, engine.device)
        rng = np.random.default_rng(9)
        cached = ctx.time_inference(clock_mhz=550.0, rng=rng, batch_size=8)
        with caches_disabled():
            plain_ctx = ExecutionContext(engine, engine.device)
            rng = np.random.default_rng(9)
            plain = plain_ctx.time_inference(
                clock_mhz=550.0, rng=rng, batch_size=8
            )
        assert [
            (e.kernel_name, e.layer_name, e.start_us, e.duration_us)
            for e in cached.kernel_events
        ] == [
            (e.kernel_name, e.layer_name, e.start_us, e.duration_us)
            for e in plain.kernel_events
        ]
