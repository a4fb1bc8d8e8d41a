"""Additional engine-behavior tests: detection kernel pipelines, the
lazily built executor, and fallback paths."""

import numpy as np
import pytest

from repro.hardware.specs import XAVIER_NX


@pytest.fixture(scope="module")
def detection_engine(farm):
    return farm.engine("mobilenet_v1", "NX", 0)


class TestDetectionBindings:
    def test_detection_layer_binds_kernel_sequence(self, detection_engine):
        binding = detection_engine.binding_for("detections")
        names = [k.name for k in binding.kernels]
        assert len(names) == 4
        assert any("RadixSort" in n for n in names)
        assert binding.tactic is None  # fixed sequence, not auctioned

    def test_detection_kernels_in_timeline(self, detection_engine):
        timing = detection_engine.create_execution_context().time_inference(
            jitter=0.0
        )
        trace_names = [e.kernel_name for e in timing.kernel_events]
        assert "cub::DeviceSegmentedRadixSortKernel1" in trace_names
        assert "nms::gatherTopDetections" in trace_names

    def test_multi_kernel_binding_costs_more_launches(self, detection_engine):
        """Splitting a layer over four kernels pays extra launch
        overhead versus a hypothetical single kernel."""
        timing = detection_engine.create_execution_context().time_inference(
            jitter=0.0
        )
        det_events = [
            e for e in timing.kernel_events if e.layer_name == "detections"
        ]
        assert len(det_events) == 4
        total = sum(e.duration_us for e in det_events)
        assert total > 4 * 0.9 * XAVIER_NX.kernel_launch_overhead_us


class TestLazyExecutor:
    def test_timing_only_context_never_schedules_the_graph(
        self, farm, monkeypatch
    ):
        from repro.graph.ir import Graph

        engine = farm.engine("mtcnn", "NX", 0)
        calls = []
        real = Graph.toposort
        monkeypatch.setattr(
            Graph, "toposort", lambda g: calls.append(g) or real(g)
        )
        context = engine.create_execution_context()
        context.time_inference(jitter=0.0)
        assert calls == []
        name = next(iter(engine.graph.input_specs))
        x = np.zeros(
            (1,) + engine.graph.input_specs[name].shape, dtype=np.float32
        )
        context.execute(**{name: x})
        context.execute(**{name: x})
        assert calls == [engine.graph]


class TestCatalogFallbacks:
    def test_lrn_runs_fp32_in_fp16_engine(self, farm):
        """AlexNet's LRN has no FP16 kernel; the engine must fall back
        to the FP32 implementation rather than fail (TensorRT's
        automatic precision fallback)."""
        engine = farm.engine("alexnet", "NX", 0)
        lrn_bindings = [
            b
            for b in engine.bindings
            if any("lrn" in k.name for k in b.kernels)
        ]
        assert lrn_bindings
        for binding in lrn_bindings:
            from repro.graph.ir import DataType

            assert binding.kernels[0].precision is DataType.FP32

    def test_deconv_kernels_exist_for_fcn(self, farm):
        engine = farm.engine("fcn_resnet18_cityscapes", "NX", 0)
        assert any(
            "deconv" in k.name
            for b in engine.bindings
            for k in b.kernels
        )
