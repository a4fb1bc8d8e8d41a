"""Cross-subsystem integration tests: the full pipeline over the whole
model zoo, exactly as the benchmark harness drives it."""

import numpy as np
import pytest

from repro.graph.shapes import infer_shapes
from repro.hardware.specs import XAVIER_AGX, XAVIER_NX
from repro.models import MODEL_REGISTRY

ALL_MODELS = sorted(MODEL_REGISTRY)


@pytest.mark.parametrize("name", ALL_MODELS)
class TestZooThroughEngine:
    """Every zoo model must build into a working engine on both
    devices and produce a finite latency at the paper's clocks."""

    def test_builds_and_times_on_both_devices(self, name, farm):
        for device_name, clock in (("NX", 599.0), ("AGX", 624.75)):
            engine = farm.engine(name, device_name, 0)
            context = engine.create_execution_context()
            timing = context.time_inference(clock_mhz=clock, jitter=0.0)
            assert timing.total_us > 0
            assert np.isfinite(timing.total_us)
            assert len(timing.kernel_events) == engine.num_kernels

    def test_engine_graph_is_strictly_valid(self, name, farm):
        engine = farm.engine(name, "NX", 0)
        engine.graph.validate()  # no dead tensors after optimization
        infer_shapes(engine.graph)

    def test_optimization_reduced_layer_count(self, name, farm):
        source = farm.graph(name)
        engine = farm.engine(name, "NX", 0)
        assert len(engine.graph) < len(source)


class TestEndToEndNumerics:
    """Numeric agreement between unoptimized and engine execution for
    one representative model per task."""

    @pytest.mark.parametrize(
        "name", ["alexnet", "tiny_yolov3", "fcn_resnet18_cityscapes"]
    )
    def test_outputs_close(self, name, farm):
        from repro.runtime.executor import GraphExecutor

        graph = farm.graph(name)
        engine = farm.engine(name, "NX", 0)
        spec = next(iter(graph.input_specs.values()))
        x = np.random.default_rng(3).normal(
            size=(2,) + spec.shape
        ).astype(np.float32) * 0.5
        ref = GraphExecutor(graph).run(**{spec.name: x})
        out = engine.create_execution_context().execute(**{spec.name: x})
        for tensor_name in ref.outputs:
            a = ref.outputs[tensor_name]
            b = out.outputs[tensor_name]
            scale = max(np.abs(a).max(), 1e-3)
            assert np.abs(a - b).max() / scale < 0.05, tensor_name


class TestCrossDeviceDeployment:
    """The paper's cases 2/3: one engine binary on both boards."""

    def test_same_engine_same_outputs_any_device(self, farm, images16):
        engine = farm.engine("alexnet", "NX", 0)
        spec = next(iter(engine.graph.input_specs.values()))
        x = np.random.default_rng(0).normal(
            size=(4,) + spec.shape
        ).astype(np.float32)
        on_nx = engine.create_execution_context(XAVIER_NX).execute(
            data=x
        ).primary()
        on_agx = engine.create_execution_context(XAVIER_AGX).execute(
            data=x
        ).primary()
        # Same binary => bit-identical outputs; only *timing* differs
        # across devices (the paper's Finding 2 is about different
        # BUILDS, not the same engine migrating).
        np.testing.assert_array_equal(on_nx, on_agx)

    def test_same_engine_different_latency_across_devices(self, farm):
        engine = farm.engine("alexnet", "NX", 0)
        nx_t = engine.create_execution_context(XAVIER_NX).time_inference(
            clock_mhz=599.0, jitter=0.0
        ).total_us
        agx_t = engine.create_execution_context(XAVIER_AGX).time_inference(
            clock_mhz=624.75, jitter=0.0
        ).total_us
        assert nx_t != agx_t


class TestFullVsDefaultScale:
    def test_full_scale_config(self, monkeypatch):
        from repro.analysis.config import current_scale

        monkeypatch.setenv("REPRO_FULL", "1")
        full = current_scale()
        monkeypatch.delenv("REPRO_FULL")
        default = current_scale()
        assert full.benign_total > default.benign_total
        assert full.consistency_images == 60_000
