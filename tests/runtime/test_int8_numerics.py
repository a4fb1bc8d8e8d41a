"""Focused tests for the INT8 numeric path (per-channel weights,
percentile calibration, sensitive-layer exclusion)."""

import numpy as np

from repro.engine import BuilderConfig, EngineBuilder, PrecisionMode
from repro.engine.passes import calibrate_int8, plan_quantization
from repro.graph.ir import DataType
from repro.hardware.specs import XAVIER_NX
from repro.runtime import ops
from repro.runtime.math_config import LayerMath

RNG = np.random.default_rng(7)


class TestPerChannelWeights:
    def test_wide_range_channels_survive(self):
        """One huge output channel must not destroy the resolution of
        the others (the failure mode of per-tensor weight scales)."""
        x = RNG.normal(size=(4, 32)).astype(np.float32)
        w = RNG.normal(size=(8, 32)).astype(np.float32) * 0.1
        w[0] *= 500.0  # pathological channel
        math = LayerMath(
            precision=DataType.INT8,
            int8_scale_in=float(np.abs(x).max() / 127),
            int8_scale_w=float(np.abs(w).max() / 127),
        )
        ref = x @ w.T
        quant = ops.fully_connected(x, w, None, math)
        # Per-channel scales keep the small channels accurate.
        small = slice(1, None)
        rel_err = np.abs(quant[:, small] - ref[:, small]) / (
            np.abs(ref[:, small]) + 1e-3
        )
        assert np.median(rel_err) < 0.05

    def test_zero_channel_fallback(self):
        x = RNG.normal(size=(2, 8)).astype(np.float32)
        w = np.zeros((3, 8), dtype=np.float32)
        w[0] = RNG.normal(size=8) * 0.1
        math = LayerMath(
            precision=DataType.INT8,
            int8_scale_in=float(np.abs(x).max() / 127),
            int8_scale_w=0.01,
        )
        out = ops.fully_connected(x, w, None, math)
        np.testing.assert_array_equal(out[:, 1:], 0.0)


class TestPercentileCalibration:
    def test_scale_clips_tail(self, fresh_small_cnn):
        from repro.engine.passes import remove_dead_layers

        remove_dead_layers(fresh_small_cnn)
        x = RNG.normal(size=(8, 3, 16, 16)).astype(np.float32)
        # Inject an extreme outlier pixel.
        x[0, 0, 0, 0] = 500.0
        cache = calibrate_int8(fresh_small_cnn, x)
        scale = cache.input_scales["conv1"]
        # absmax calibration would give ~500/127 ≈ 3.9; percentile
        # calibration must sit well below that.
        assert scale < 1.0


class TestSensitiveLayerExclusion:
    def test_classifier_layer_not_int8(self, fresh_small_cnn):
        from repro.engine.passes import remove_dead_layers

        remove_dead_layers(fresh_small_cnn)
        x = RNG.normal(size=(4, 3, 16, 16)).astype(np.float32)
        cache = calibrate_int8(fresh_small_cnn, x)
        plan = plan_quantization(
            fresh_small_cnn, [DataType.INT8, DataType.FP32], cache
        )
        fc = fresh_small_cnn.layer("fc")  # feeds the softmax
        assert DataType.INT8 not in plan.precisions_for(fc)
        conv = fresh_small_cnn.layer("conv1")
        assert DataType.INT8 in plan.precisions_for(conv)

    def test_int8_engine_accuracy_close_to_fp32(self, small_cnn, images16):
        from repro.runtime.executor import GraphExecutor

        calibration = images16[:4]
        engine = EngineBuilder(
            XAVIER_NX,
            BuilderConfig(
                precision=PrecisionMode.INT8,
                seed=3,
                calibration_batch=calibration,
            ),
        ).build(small_cnn)
        ref = GraphExecutor(small_cnn).run(data=images16).primary()
        out = engine.create_execution_context().execute(
            data=images16
        ).primary()
        agreement = (ref.argmax(1) == out.argmax(1)).mean()
        assert agreement >= 0.6
