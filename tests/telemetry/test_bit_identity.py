"""Telemetry must be free when disabled: with no sinks attached (or
after a session has closed), every timing and engine plan is
bit-identical to a run in which telemetry was never touched."""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.engine import BuilderConfig, EngineBuilder
from repro.engine.plan import save_plan
from repro.hardware.specs import XAVIER_NX
from repro.serving.supervisor import (
    InferenceSupervisor,
    StreamSpec,
    SupervisorConfig,
)
from tests.conftest import make_small_cnn


class Recorder:
    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)


def _build(seed: int = 23):
    return EngineBuilder(XAVIER_NX, BuilderConfig(seed=seed)).build(
        make_small_cnn()
    )


class TestTimingBitIdentity:
    def _timing(self, engine):
        return engine.create_execution_context().time_inference(
            rng=np.random.default_rng(5)
        )

    def test_timing_identical_with_and_without_session(self):
        engine = _build()
        baseline = self._timing(engine)
        with telemetry.session(Recorder()) as tsn:
            instrumented = self._timing(engine)
            assert len(tsn.metrics) > 0  # telemetry actually flowed
        after = self._timing(engine)
        assert instrumented == baseline
        assert after == baseline
        assert instrumented.kernel_events == baseline.kernel_events
        assert instrumented.memcpy_events == baseline.memcpy_events
        assert instrumented.total_us == baseline.total_us

    def test_supervisor_serve_identical_with_and_without_session(self):
        def run():
            supervisor = InferenceSupervisor(
                _build(),
                streams=[StreamSpec("cam0"), StreamSpec("cam1")],
                config=SupervisorConfig(),
                seed=7,
            )
            return supervisor.serve(frames=4)

        baseline = run()
        with telemetry.session(Recorder()):
            instrumented = run()
        assert [r.latency_ms for r in instrumented.records] == [
            r.latency_ms for r in baseline.records
        ]
        assert instrumented.to_dict() == baseline.to_dict()


class TestPlanBitIdentity:
    def test_plan_bytes_identical_with_and_without_session(self, tmp_path):
        plain = tmp_path / "plain.plan"
        instrumented = tmp_path / "instrumented.plan"
        save_plan(_build(), plain)
        with telemetry.session(Recorder()) as tsn:
            save_plan(_build(), instrumented)
            # The build emitted pass/auction spans, yet the plan bytes
            # must not move.
            assert tsn.metrics.counter_total(
                "trtsim_build_passes_total"
            ) > 0
            assert tsn.metrics.counter_total(
                "trtsim_tactic_auctions_total"
            ) > 0
        assert plain.read_bytes() == instrumented.read_bytes()

    def test_seeded_builds_reproduce(self):
        a = _build(seed=23)
        b = _build(seed=23)
        assert a.build_seed == b.build_seed
        assert [k.name for bind in a.bindings for k in bind.kernels] == [
            k.name for bind in b.bindings for k in bind.kernels
        ]


class TestPredictableOverheadBoundary:
    def test_emit_fast_path_allocates_nothing(self):
        """emit() on an inactive bus returns before building an event;
        the sequence counter proves no event was constructed."""
        from repro.telemetry import BUS, SpanKind

        before = BUS._seq
        for _ in range(1000):
            BUS.emit(SpanKind.KERNEL, "k", dur_us=1.0, layer="conv")
        assert BUS._seq == before

    def test_instrumented_sites_guard_on_active(self):
        """Every instrumentation site is wrapped in `if BUS.active:` so
        disabled-mode code paths never touch the bus."""
        import inspect

        import repro.engine.builder as builder
        import repro.engine.tactics as tactics
        import repro.hardware.gpu as gpu
        import repro.serving.batching as batching

        for mod in (gpu, tactics, builder, batching):
            source = inspect.getsource(mod)
            assert "BUS.active" in source
            assert "BUS.emit" in source
