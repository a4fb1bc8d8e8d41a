"""Batch dimension through the hardware timing model: per-kernel batch
scaling, bit-identical batch-1 anchors, and Eq. 1 saturation."""

import numpy as np
import pytest

from repro.engine import BuilderConfig, EngineBuilder
from repro.engine.kernels import DEFAULT_CATALOG
from repro.hardware.cost import CostTable, KernelColumns
from repro.hardware.scheduler import UTILIZATION_CEILING, StreamScheduler
from repro.hardware.specs import XAVIER_NX
from repro.hardware.workload import LayerWorkload

from tests.hardware.reference_timeline import for_batch, kernel_cost

#: A tensor-core conv kernel with split-K, so the batch reaches the
#: wave count, the strides and the bandwidth term.
KERNEL = DEFAULT_CATALOG.by_name(
    "trt_volta_h884cudnn_64x32_sliced1x2_ldg8_relu_exp_small_nhwc_tn_v1"
)


@pytest.fixture(scope="module")
def engine():
    from tests.conftest import make_small_cnn

    return EngineBuilder(XAVIER_NX, BuilderConfig(seed=13)).build(
        make_small_cnn()
    )


class TestWorkloadForBatch:
    """The cost table's batch arithmetic against the batch rule it
    replaced (``for_batch`` in the timeline reference): a batch of B
    prices a kernel exactly as the reference formula prices the
    B-scaled workload."""

    def _workload(self, gemm_k=9):
        return LayerWorkload(
            flops=1000.0,
            bytes_in=64,
            bytes_w=128,
            bytes_out=32,
            gemm_m=8,
            gemm_n=16,
            gemm_k=gemm_k,
            elements_out=128,
            category="conv",
        )

    def _terms(self, workload, batch_size):
        table = CostTable(KernelColumns(XAVIER_NX, [KERNEL]), workload)
        launch, *columns = table.kernel_terms(1000.0, 1.0, batch_size)
        return [launch] + [column.item() for column in columns]

    def _reference(self, workload, batch_size):
        cost = kernel_cost(
            XAVIER_NX, KERNEL, for_batch(workload, batch_size), 1000.0
        )
        return [
            cost.launch_us, cost.compute_us, cost.bandwidth_us,
            cost.latency_us,
        ]

    def test_batch_one_is_self(self):
        for w in (self._workload(), self._workload(gemm_k=0)):
            assert for_batch(w, 1) is w
            assert self._terms(w, 1) == self._reference(w, 1)

    def test_linear_activation_scaling_amortized_weights(self):
        for w in (self._workload(), self._workload(gemm_k=0)):
            for batch in (2, 4, 7, 64):
                assert self._terms(w, batch) == self._reference(w, batch)
        w = self._workload()
        # Activations scale with the batch; weights stream once per
        # batched invocation.
        _, _, one, _ = self._terms(w, 1)
        _, _, four, _ = self._terms(w, 4)
        assert four / one == pytest.approx(
            (4 * (w.bytes_in + w.bytes_out) + w.bytes_w) / w.total_bytes
        )

    def test_workload_bytes_match_the_reference(self, engine):
        for batch in (1, 2, 8, 32):
            assert engine.workload_bytes(batch) == sum(
                for_batch(b.workload, batch).total_bytes
                for b in engine.bindings
            )

    def test_rejects_nonpositive_batch(self, engine):
        with pytest.raises(ValueError, match="batch_size"):
            for_batch(self._workload(), 0)
        with pytest.raises(ValueError, match="batch_size"):
            engine.workload_bytes(0)


class TestBatchedTiming:
    def test_batch_one_bit_identical(self, engine):
        ctx = engine.create_execution_context()
        base = ctx.time_inference(jitter=0.0)
        batched = ctx.time_inference(jitter=0.0, batch_size=1)
        assert batched.total_us == base.total_us
        assert [e.duration_us for e in batched.kernel_events] == [
            e.duration_us for e in base.kernel_events
        ]
        assert [e.duration_us for e in batched.memcpy_events] == [
            e.duration_us for e in base.memcpy_events
        ]
        assert base.batch_size == 1 and batched.batch_size == 1

    def test_batch_one_bit_identical_with_jitter(self, engine):
        ctx = engine.create_execution_context()
        a = ctx.time_inference(rng=np.random.default_rng(7))
        b = ctx.time_inference(rng=np.random.default_rng(7), batch_size=1)
        assert a.total_us == b.total_us

    def test_rejects_nonpositive_batch(self, engine):
        ctx = engine.create_execution_context()
        with pytest.raises(ValueError, match="batch_size"):
            ctx.time_inference(jitter=0.0, batch_size=0)

    def test_latency_grows_sublinearly(self, engine):
        """A batch of 8 costs far less than 8 sequential inferences —
        launches and weight traffic amortize."""
        ctx = engine.create_execution_context()
        one = ctx.time_inference(
            jitter=0.0, include_engine_upload=False
        ).total_us
        eight = ctx.time_inference(
            jitter=0.0, include_engine_upload=False, batch_size=8
        ).total_us
        assert one < eight < 4 * one

    def test_aggregate_fps_monotone_in_batch(self, engine):
        ctx = engine.create_execution_context()
        fps = []
        for b in (1, 2, 4, 8, 16, 32):
            t = ctx.time_inference(
                jitter=0.0, include_engine_upload=False, batch_size=b
            )
            fps.append(b * 1e6 / t.total_us)
        assert fps == sorted(fps)

    def test_bandwidth_cap_saturation(self, engine):
        """Aggregate FPS flattens at large batch: the Eq. 1 DRAM cap
        binds batched scaling exactly like multi-stream scaling."""
        ctx = engine.create_execution_context()

        def agg(b):
            t = ctx.time_inference(
                jitter=0.0, include_engine_upload=False, batch_size=b
            )
            return b * 1e6 / t.total_us

        assert agg(2) > 1.5 * agg(1)  # near-linear at the start
        assert agg(2048) < 1.10 * agg(1024)  # flat at the cap
        # And never above the usable-bandwidth frame-rate ceiling.
        per_frame_bytes = engine.workload_bytes(2048) / 2048
        cap = (
            XAVIER_NX.mem_bandwidth_gbps * 1e9 / per_frame_bytes
        )
        assert agg(2048) <= cap

    def test_input_memcpy_carries_batch(self, engine):
        ctx = engine.create_execution_context()
        one = ctx.time_inference(jitter=0.0, include_engine_upload=False)
        four = ctx.time_inference(
            jitter=0.0, include_engine_upload=False, batch_size=4
        )
        assert four.memcpy_events[0].bytes == 4 * one.memcpy_events[0].bytes

    def test_per_sample_us(self, engine):
        ctx = engine.create_execution_context()
        t = ctx.time_inference(jitter=0.0, batch_size=8)
        assert t.per_sample_us == pytest.approx(t.total_us / 8)

    def test_infer_derives_batch_from_inputs(self, engine):
        rng = np.random.default_rng(0)
        spec = engine.graph.input_specs[engine.input_name]
        batch = rng.normal(size=(3,) + tuple(spec.shape)).astype(
            np.float32
        )
        outcome = engine.create_execution_context().infer(
            **{engine.input_name: batch}
        )
        assert outcome.timing.batch_size == 3
        assert outcome.result.primary().shape[0] == 3


class TestBatchedSweep:
    def test_batch_one_sweep_is_regression_anchor(self, engine):
        """sweep(batch_size=1) reproduces the paper-shaped sweep
        bit-for-bit (aggregate FPS, utilization, RAM)."""
        sched = StreamScheduler(engine)
        base = sched.sweep(step=2)
        anchored = sched.sweep(step=2, batch_size=1)
        assert [p.aggregate_fps for p in base.points] == [
            p.aggregate_fps for p in anchored.points
        ]
        assert [p.gpu_utilization_pct for p in base.points] == [
            p.gpu_utilization_pct for p in anchored.points
        ]
        assert [p.ram_used_mb for p in base.points] == [
            p.ram_used_mb for p in anchored.points
        ]
        assert base.max_threads == anchored.max_threads

    def test_batched_sweep_keeps_saturation_shape(self, engine):
        result = StreamScheduler(engine).sweep(step=2, batch_size=4)
        assert result.batch_size == 4
        assert result.points, "batched sweep should support streams"
        utils = [p.gpu_utilization_pct for p in result.points]
        assert utils == sorted(utils)
        assert utils[-1] <= UTILIZATION_CEILING * 100.0 + 1e-9
        aggs = [p.aggregate_fps for p in result.points]
        assert all(b >= a * 0.999 for a, b in zip(aggs, aggs[1:]))

    def test_batching_lifts_aggregate_throughput(self, engine):
        sched = StreamScheduler(engine)
        base = sched.sweep(step=2)
        batched = sched.sweep(step=2, batch_size=8)
        assert (
            batched.points[-1].aggregate_fps
            > 2.0 * base.points[-1].aggregate_fps
        )
