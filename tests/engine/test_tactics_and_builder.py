"""Tests for tactic selection, the engine builder, and compiled engines."""

import numpy as np
import pytest

from repro.engine import (
    BuilderConfig,
    EngineBuilder,
    PrecisionMode,
)
from repro.engine.kernels import DEFAULT_CATALOG, KernelCatalog, KernelSpec
from repro.engine.tactics import TacticSelector
from repro.graph.ir import DataType, LayerKind
from repro.hardware.specs import XAVIER_AGX, XAVIER_NX
from repro.hardware.workload import LayerWorkload
from repro.runtime.executor import GraphExecutor

RNG = np.random.default_rng(0)


def _conv_workload(m=32, n=256, k=144):
    return LayerWorkload(
        flops=2.0 * m * n * k,
        bytes_in=n * k * 2,
        bytes_w=m * k * 2,
        bytes_out=m * n * 2,
        gemm_m=m,
        gemm_n=n,
        gemm_k=k,
        elements_out=m * n,
        category="conv",
    )


def _selector(noise=0.08, seed=0, device=XAVIER_NX):
    return TacticSelector(
        device,
        clock_mhz=device.max_gpu_clock_mhz,
        rng=np.random.default_rng(seed),
        timing_noise=noise,
    )


class TestCatalog:
    def test_unique_names(self):
        names = [k.name for k in DEFAULT_CATALOG]
        assert len(names) == len(set(names))

    def test_duplicate_names_rejected(self):
        dup = KernelSpec(
            next(iter(DEFAULT_CATALOG)).name, "conv", DataType.FP32
        )
        with pytest.raises(ValueError, match="duplicate"):
            KernelCatalog(extra=[dup])

    def test_candidates_respect_precision(self):
        cands = DEFAULT_CATALOG.candidates("conv", 144, [DataType.FP16])
        assert cands
        assert all(k.precision is DataType.FP16 for k in cands)

    def test_candidates_respect_min_k(self):
        shallow = DEFAULT_CATALOG.candidates("conv", 8, [DataType.FP16])
        deep = DEFAULT_CATALOG.candidates("conv", 512, [DataType.FP16])
        assert len(shallow) < len(deep)
        assert all(k.min_gemm_k <= 8 for k in shallow)

    def test_fp32_fallback_when_no_kernel_at_precision(self):
        # LRN only exists in FP32; asking for FP16 must fall back.
        cands = DEFAULT_CATALOG.candidates("lrn", 0, [DataType.FP16])
        assert cands
        assert all(k.precision is DataType.FP32 for k in cands)

    def test_detection_sequence_nonempty(self):
        seq = DEFAULT_CATALOG.detection_sequence()
        assert len(seq) == 4

    def test_lookup_by_name(self):
        k = DEFAULT_CATALOG.by_name("cuda_copy_kernel")
        assert k.category == "copy"


class TestTacticSelector:
    def test_zero_noise_is_deterministic_optimum(self):
        sel_a = _selector(noise=0.0, seed=1)
        sel_b = _selector(noise=0.0, seed=2)
        w = _conv_workload()
        choice_a = sel_a.choose("l", w, [DataType.FP16], DEFAULT_CATALOG)
        choice_b = sel_b.choose("l", w, [DataType.FP16], DEFAULT_CATALOG)
        assert choice_a.kernel.name == choice_b.kernel.name
        assert choice_a.measured_us == pytest.approx(choice_a.true_us)

    def test_noise_can_change_winner(self):
        """Across many seeds, the auction must not always pick the same
        kernel — the mechanical root of build non-determinism."""
        w = _conv_workload()
        winners = {
            _selector(seed=s).choose(
                "l", w, [DataType.FP16], DEFAULT_CATALOG
            ).kernel.name
            for s in range(40)
        }
        assert len(winners) > 1

    def test_same_seed_same_choice(self):
        w = _conv_workload()
        a = _selector(seed=9).choose("l", w, [DataType.FP16], DEFAULT_CATALOG)
        b = _selector(seed=9).choose("l", w, [DataType.FP16], DEFAULT_CATALOG)
        assert a.kernel.name == b.kernel.name

    def test_no_candidates_raises(self):
        sel = _selector()
        w = _conv_workload()
        empty = KernelCatalog(
            extra=[]
        )
        # restrict to a category with no kernels
        bogus = LayerWorkload(
            flops=1, bytes_in=1, bytes_w=0, bytes_out=1,
            gemm_m=1, gemm_n=1, gemm_k=0, elements_out=1,
            category="nonexistent",
        )
        with pytest.raises(LookupError, match="no kernel"):
            sel.choose("l", bogus, [DataType.FP32], empty)

    def test_invalid_noise_rejected(self):
        with pytest.raises(ValueError, match="timing_noise"):
            TacticSelector(
                XAVIER_NX, 1000.0, np.random.default_rng(0),
                timing_noise=-1,
            )
        with pytest.raises(ValueError, match="timing_repeats"):
            TacticSelector(
                XAVIER_NX, 1000.0, np.random.default_rng(0),
                timing_repeats=0,
            )

    def test_merge_decision_noiseless_prefers_merged_for_small(self):
        """Two tiny sibling convs share a wave when merged — merged
        must win a noiseless auction."""
        sel = _selector(noise=0.0)
        members = [_conv_workload(m=8, n=64, k=27) for _ in range(2)]
        merged = _conv_workload(m=16, n=64, k=27)
        assert sel.merge_is_faster(
            members, merged, [DataType.FP16], DEFAULT_CATALOG
        )


class TestHostIndependentMerges:
    @pytest.mark.parametrize("model", ["googlenet", "inception_v4"])
    def test_builds_do_not_depend_on_builtin_sum(self, model, monkeypatch):
        """Merge decisions over three or more sibling convolutions add
        the split side's best times left to right, so a build with
        builtin ``sum()`` compensated, as Python 3.12+ computes it,
        binds the same engine and records the same build spans."""
        import builtins

        from repro.analysis.engines import device_by_name
        from repro.models import build_model

        from tests.engine.build_oracle import base_config, outcome
        from tests.hardware.reference_timeline import neumaier_sum

        network = build_model(model, pretrained=False)
        device = device_by_name("NX")
        config = base_config(network, PrecisionMode.FP16, seed=7)
        sequential = outcome(EngineBuilder, network, device, config, "trt")
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "sum", neumaier_sum)
            compensated = outcome(
                EngineBuilder, network, device, config, "trt"
            )
        assert compensated == sequential

    def test_split_side_adds_left_to_right(self, monkeypatch):
        import builtins

        from tests.hardware.reference_timeline import neumaier_sum

        # Best times whose left-to-right sum rounds back to 1.0 while a
        # compensated sum keeps both halves of the last ulp.
        best = {8: 1.0, 16: 2.0 ** -53, 24: 2.0 ** -53, 48: 1.0}
        selector = _selector()
        monkeypatch.setattr(
            selector, "measure",
            lambda kernels, w: ([best[w.gemm_m]], [best[w.gemm_m]]),
        )
        members = [_conv_workload(m=m) for m in (8, 16, 24)]
        monkeypatch.setattr(builtins, "sum", neumaier_sum)
        assert not selector.merge_is_faster(
            members, _conv_workload(m=48), [DataType.FP16], DEFAULT_CATALOG
        )


class TestEngineBuilder:
    def _build(self, graph, device=XAVIER_NX, **kwargs):
        config = BuilderConfig(seed=kwargs.pop("seed", 11), **kwargs)
        return EngineBuilder(device, config).build(graph)

    def test_optimizations_applied(self, small_cnn):
        engine = self._build(small_cnn)
        assert not engine.graph.has_layer("dead_head")
        assert engine.graph.count_kind(LayerKind.BATCHNORM) == 0
        assert engine.graph.count_kind(LayerKind.DROPOUT) == 0

    def test_source_graph_untouched(self, small_cnn):
        n_layers = len(small_cnn)
        self._build(small_cnn)
        assert len(small_cnn) == n_layers
        assert small_cnn.has_layer("dead_head")

    def test_every_layer_bound(self, small_cnn):
        engine = self._build(small_cnn)
        bound = {b.layer_name for b in engine.bindings}
        assert bound == {l.name for l in engine.graph.layers}

    def test_same_seed_reproducible(self, small_cnn):
        a = self._build(small_cnn, seed=5)
        b = self._build(small_cnn, seed=5)
        assert a.kernel_names() == b.kernel_names()
        assert a.size_bytes == b.size_bytes

    def test_different_seeds_differ(self, small_cnn):
        """Some pair among several builds must differ in kernel
        bindings (TensorRT's engine-to-engine non-determinism)."""
        kernel_lists = {
            tuple(self._build(small_cnn, seed=s).kernel_names())
            for s in range(6)
        }
        assert len(kernel_lists) > 1

    def test_default_seed_draws_entropy(self, small_cnn):
        a = EngineBuilder(XAVIER_NX).build(small_cnn)
        b = EngineBuilder(XAVIER_NX).build(small_cnn)
        assert a.build_seed != b.build_seed

    def test_fp32_mode_uses_no_half_kernels(self, small_cnn):
        engine = self._build(
            small_cnn, precision=PrecisionMode.FP32
        )
        for binding in engine.bindings:
            for kernel in binding.kernels:
                assert kernel.precision is DataType.FP32

    def test_stored_weight_bytes_precision_and_padding(self):
        """FP16 storage halves unpadded weights; tile-padding kernels
        inflate small layers (the paper's MTCNN 1.9->3.8 MB effect)."""
        from repro.engine.builder import _stored_weight_bytes
        from repro.graph.ir import Layer

        layer = Layer(
            "c", LayerKind.CONVOLUTION, ["x"], ["y"],
            attrs={"out_channels": 8, "kernel": 3},
            weights={
                "kernel": np.zeros((8, 16, 3, 3), dtype=np.float32),
                "bias": np.zeros(8, dtype=np.float32),
            },
        )
        fp32_kernel = DEFAULT_CATALOG.by_name(
            "trt_volta_scudnn_128x32_relu_small_nn_v1"
        )
        fp16_plain = DEFAULT_CATALOG.by_name(
            "trt_volta_h884cudnn_64x32_sliced1x2_ldg8_relu_exp_small_nhwc_tn_v1"
        )
        fp16_padded = DEFAULT_CATALOG.by_name(
            "trt_volta_h884cudnn_256x64_ldg8_relu_exp_small_nhwc_tn_v1"
        )
        b32 = _stored_weight_bytes(layer, fp32_kernel)
        b16 = _stored_weight_bytes(layer, fp16_plain)
        b16_pad = _stored_weight_bytes(layer, fp16_padded)
        assert b16 < b32  # halves
        assert b16_pad > b16  # tile padding inflates (8 -> 256 rows)
        assert b16_pad > b32  # enough to exceed even FP32

    def test_int8_requires_calibration_batch(self, small_cnn):
        x = RNG.normal(size=(4, 3, 16, 16)).astype(np.float32)
        engine = self._build(
            small_cnn,
            precision=PrecisionMode.INT8,
            calibration_batch=x,
        )
        precisions = {
            b.tactic.kernel.precision
            for b in engine.bindings
            if b.tactic is not None
        }
        assert DataType.INT8 in precisions

    def test_merge_disabled(self, small_cnn):
        engine = self._build(small_cnn, enable_horizontal_merge=False)
        assert engine.graph.count_kind(LayerKind.MERGED_CONV) == 0

    def test_engine_size_includes_plan_overhead(self, small_cnn):
        from repro.engine.builder import (
            PLAN_FIXED_OVERHEAD_BYTES,
            PLAN_PER_BINDING_BYTES,
        )

        engine = self._build(small_cnn)
        minimum = (
            PLAN_FIXED_OVERHEAD_BYTES
            + PLAN_PER_BINDING_BYTES * len(engine.bindings)
        )
        assert engine.size_bytes > minimum

    def test_describe_mentions_device(self, small_cnn):
        engine = self._build(small_cnn, device=XAVIER_AGX)
        assert "Xavier AGX" in engine.describe()

    def test_build_time_positive(self, small_cnn):
        assert self._build(small_cnn).build_time_us > 0


class TestEngineExecution:
    def test_engine_matches_unoptimized_closely(self, small_cnn, images16):
        config = BuilderConfig(seed=1)
        engine = EngineBuilder(XAVIER_NX, config).build(small_cnn)
        ref = GraphExecutor(small_cnn).run(data=images16).primary()
        out = engine.create_execution_context().execute(
            data=images16
        ).primary()
        assert np.abs(ref - out).max() < 0.02
        assert (ref.argmax(1) == out.argmax(1)).mean() >= 0.75

    def test_cross_device_context(self, small_cnn):
        engine = EngineBuilder(XAVIER_NX, BuilderConfig(seed=1)).build(
            small_cnn
        )
        ctx = engine.create_execution_context(run_device=XAVIER_AGX)
        assert ctx.device is XAVIER_AGX
        timing = ctx.time_inference(jitter=0.0)
        assert timing.device_name == "Xavier AGX"

    def test_timing_deterministic_without_jitter(self, small_cnn):
        engine = EngineBuilder(XAVIER_NX, BuilderConfig(seed=1)).build(
            small_cnn
        )
        ctx = engine.create_execution_context()
        a = ctx.time_inference(jitter=0.0).total_us
        b = ctx.time_inference(jitter=0.0).total_us
        assert a == b

    def test_timing_jitter_with_rng(self, small_cnn):
        engine = EngineBuilder(XAVIER_NX, BuilderConfig(seed=1)).build(
            small_cnn
        )
        ctx = engine.create_execution_context()
        rng = np.random.default_rng(0)
        samples = {ctx.time_inference(rng=rng).total_us for _ in range(5)}
        assert len(samples) == 5

    def test_memcpy_exclusion_reduces_latency(self, small_cnn):
        engine = EngineBuilder(XAVIER_NX, BuilderConfig(seed=1)).build(
            small_cnn
        )
        ctx = engine.create_execution_context()
        with_copy = ctx.time_inference(jitter=0.0)
        without = ctx.time_inference(
            include_engine_upload=False, jitter=0.0
        )
        assert without.total_us < with_copy.total_us
        assert with_copy.memcpy_us > without.memcpy_us

    def test_binding_lookup(self, small_cnn):
        engine = EngineBuilder(XAVIER_NX, BuilderConfig(seed=1)).build(
            small_cnn
        )
        binding = engine.binding_for("fc")
        assert binding.layer_name == "fc"
        with pytest.raises(KeyError):
            engine.binding_for("ghost")
