"""FaultInjector behaviour: every fault family, seeded determinism,
and the zero-fault pass-through guarantee."""

import numpy as np
import pytest

from repro.engine.builder import BuilderConfig, EngineBuilder
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultScenario,
    KernelLaunchFault,
    zero_fault_plan,
)
from repro.hardware.clocks import ClockDomain
from repro.hardware.scheduler import StreamScheduler
from repro.hardware.specs import XAVIER_NX


@pytest.fixture(scope="module")
def engine(small_cnn):
    return EngineBuilder(XAVIER_NX, BuilderConfig(seed=0)).build(small_cnn)


def _window(kind, **kw):
    return FaultPlan(
        scenarios=[FaultScenario(kind=kind, start_s=1.0, duration_s=1.0, **kw)]
    )


# ----------------------------------------------------------------------
# thermal throttle
# ----------------------------------------------------------------------
class TestThermal:
    def test_steps_down_ladder_and_restores(self):
        injector = FaultInjector(
            _window(FaultKind.THERMAL_THROTTLE, severity=3)
        )
        domain = ClockDomain(XAVIER_NX)
        top = XAVIER_NX.max_gpu_clock_mhz

        injector.set_time(0.5)
        assert injector.apply_thermal(domain) == top

        injector.set_time(1.5)
        throttled = injector.apply_thermal(domain)
        ladder = XAVIER_NX.supported_gpu_clocks_mhz
        assert throttled == ladder[ladder.index(top) - 3]

        injector.set_time(2.5)
        assert injector.apply_thermal(domain) == top

    def test_amplitude_overrides_severity_steps(self):
        injector = FaultInjector(
            _window(FaultKind.THERMAL_THROTTLE, severity=1, amplitude=50)
        )
        domain = ClockDomain(XAVIER_NX)
        injector.set_time(1.5)
        # 50 steps clamps at the ladder floor.
        assert injector.apply_thermal(domain) == min(
            XAVIER_NX.supported_gpu_clocks_mhz
        )

    def test_transitions_are_logged_once(self):
        injector = FaultInjector(
            _window(FaultKind.THERMAL_THROTTLE, severity=2)
        )
        domain = ClockDomain(XAVIER_NX)
        for t in (0.0, 0.5, 1.2, 1.4, 1.8, 2.5, 3.0):
            injector.set_time(t)
            injector.apply_thermal(domain)
        phases = [
            e.detail("phase")
            for e in injector.log.of_kind(FaultKind.THERMAL_THROTTLE)
        ]
        assert phases == ["engage", "step", "release", "restore"]


# ----------------------------------------------------------------------
# DRAM degradation + memcpy stalls
# ----------------------------------------------------------------------
class TestBandwidthFaults:
    def test_dram_slows_kernels_and_memcpys(self):
        injector = FaultInjector(
            _window(FaultKind.DRAM_DEGRADATION, severity=5)
        )
        injector.set_time(1.5)
        assert injector.memcpy_factor("x") == pytest.approx(2.0)
        assert injector.kernel_factor("conv1", "k") == pytest.approx(2.0)
        assert injector.bandwidth_scale() == pytest.approx(0.5)

    def test_inactive_window_is_exactly_neutral(self):
        injector = FaultInjector(
            _window(FaultKind.DRAM_DEGRADATION, severity=5)
        )
        injector.set_time(0.0)
        assert injector.memcpy_factor("x") == 1.0
        assert injector.kernel_factor("conv1", "k") == 1.0
        assert injector.bandwidth_scale() == 1.0

    def test_stall_fires_deterministically_per_seed(self):
        def run(seed):
            plan = FaultPlan(
                scenarios=[
                    FaultScenario(
                        kind=FaultKind.MEMCPY_STALL, probability=0.4
                    )
                ],
                seed=seed,
            )
            injector = FaultInjector(plan)
            injector.set_time(0.5)
            return [injector.memcpy_factor("x") for _ in range(50)]

        assert run(3) == run(3)
        assert run(3) != run(4)

    def test_stall_emission_carries_factor(self):
        plan = FaultPlan(
            scenarios=[
                FaultScenario(kind=FaultKind.MEMCPY_STALL, severity=3)
            ]
        )
        injector = FaultInjector(plan)
        injector.set_time(0.0)
        factor = injector.memcpy_factor("input HtoD")
        [event] = injector.log.of_kind(FaultKind.MEMCPY_STALL)
        assert event.target == "input HtoD"
        assert event.detail("factor") == pytest.approx(factor) == 4.0


# ----------------------------------------------------------------------
# executor faults: launch failures + NaN injection
# ----------------------------------------------------------------------
class TestExecutorFaults:
    def test_launch_failure_raises_through_executor(self, engine):
        plan = FaultPlan(
            scenarios=[
                FaultScenario(
                    kind=FaultKind.KERNEL_LAUNCH_FAIL, target="conv1"
                )
            ]
        )
        injector = FaultInjector(plan)
        context = engine.create_execution_context(
            layer_hook=injector.executor_hook()
        )
        x = np.zeros((1, 3, 16, 16), dtype=np.float32)
        with pytest.raises(KernelLaunchFault, match="conv1"):
            context.execute(**{engine.input_name: x})
        [event] = injector.log.of_kind(FaultKind.KERNEL_LAUNCH_FAIL)
        assert event.target == "conv1"

    def test_target_glob_spares_other_layers(self, engine):
        plan = FaultPlan(
            scenarios=[
                FaultScenario(
                    kind=FaultKind.KERNEL_LAUNCH_FAIL, target="nonexistent*"
                )
            ]
        )
        injector = FaultInjector(plan)
        context = engine.create_execution_context(
            layer_hook=injector.executor_hook()
        )
        x = np.zeros((1, 3, 16, 16), dtype=np.float32)
        result = context.execute(**{engine.input_name: x})
        assert np.isfinite(result.primary()).all()
        assert len(injector.log) == 0

    def test_nan_fault_poisons_outputs_deterministically(self, engine):
        def run():
            plan = FaultPlan(
                scenarios=[
                    FaultScenario(kind=FaultKind.COMPUTE_NAN, severity=5)
                ],
                seed=11,
            )
            injector = FaultInjector(plan)
            context = engine.create_execution_context(
                layer_hook=injector.executor_hook()
            )
            x = np.ones((1, 3, 16, 16), dtype=np.float32)
            out = context.execute(**{engine.input_name: x}).primary()
            return out, len(injector.log)

        out_a, events_a = run()
        out_b, events_b = run()
        assert np.isnan(out_a).any()
        np.testing.assert_array_equal(out_a, out_b)
        assert events_a == events_b > 0


# ----------------------------------------------------------------------
# OOM pressure through the scheduler
# ----------------------------------------------------------------------
class TestRamPressure:
    def test_stolen_ram_shrinks_stream_count(self, engine):
        injector = FaultInjector(
            _window(FaultKind.OOM, severity=5, amplitude=0.995)
        )
        healthy = StreamScheduler(engine).max_supported_threads()
        pressured = StreamScheduler(
            engine, faults=injector
        )
        injector.set_time(1.5)
        assert pressured.max_supported_threads() < healthy

        injector.set_time(2.5)  # window over: capacity restored
        assert pressured.max_supported_threads() == healthy

    def test_sweep_annotates_tegrastats(self, engine):
        from repro.profiling.tegrastats import Tegrastats

        injector = FaultInjector(
            _window(FaultKind.OOM, severity=4)
        )
        injector.set_time(1.5)
        stats = Tegrastats()
        StreamScheduler(engine, faults=injector).sweep(
            max_threads=2, tegrastats=stats
        )
        notes = [s.note for s in stats.samples if s.note]
        assert notes and all("RAM stolen" in n for n in notes)
        assert "RAM stolen" in stats.samples[0].render()


# ----------------------------------------------------------------------
# timing faults through simulate_inference
# ----------------------------------------------------------------------
class TestTimingIntegration:
    def test_hang_inflates_latency(self, engine):
        plan = FaultPlan(
            scenarios=[FaultScenario(kind=FaultKind.KERNEL_HANG, severity=2)]
        )
        injector = FaultInjector(plan)
        injector.set_time(0.0)
        context = engine.create_execution_context()
        healthy = context.time_inference(jitter=0.0)
        hung = context.time_inference(jitter=0.0, hardware_hook=injector)
        assert hung.total_us > healthy.total_us * 5
        assert injector.log.of_kind(FaultKind.KERNEL_HANG)

    def test_zero_fault_hook_is_bit_identical(self, engine):
        injector = FaultInjector(zero_fault_plan())
        context = engine.create_execution_context()
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        bare = context.time_inference(rng=rng_a)
        hooked = context.time_inference(rng=rng_b, hardware_hook=injector)
        assert bare.total_us == hooked.total_us
        assert len(injector.log) == 0


# ----------------------------------------------------------------------
# determinism across full replays
# ----------------------------------------------------------------------
class TestReplayDeterminism:
    @pytest.mark.parametrize(
        "kind, kwargs",
        [
            (FaultKind.MEMCPY_STALL, {"probability": 0.5}),
            (FaultKind.KERNEL_HANG, {"probability": 0.3, "severity": 2}),
            (FaultKind.DRAM_DEGRADATION, {"severity": 3}),
        ],
    )
    def test_same_seed_same_event_log(self, engine, kind, kwargs):
        def replay():
            plan = FaultPlan(
                scenarios=[FaultScenario(kind=kind, **kwargs)], seed=9
            )
            injector = FaultInjector(plan)
            context = engine.create_execution_context()
            for i in range(5):
                injector.set_time(i * 0.1)
                context.time_inference(jitter=0.0, hardware_hook=injector)
            return injector.log.to_dicts()

        assert replay() == replay()
