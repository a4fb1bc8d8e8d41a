"""Tests for the inference timeline simulator, baseline runtime, and
multi-stream scheduler."""

import numpy as np
import pytest

from repro.engine import BuilderConfig, EngineBuilder, PrecisionMode
from repro.hardware.baseline import UnoptimizedRuntime
from repro.hardware.scheduler import StreamScheduler
from repro.hardware.specs import XAVIER_AGX, XAVIER_NX
from repro.profiling.nvprof import Nvprof
from repro.profiling.tegrastats import Tegrastats

from tests.hardware.reference_timeline import left_to_right_sum, neumaier_sum


@pytest.fixture(scope="module")
def engine():
    from tests.conftest import make_small_cnn

    return EngineBuilder(XAVIER_NX, BuilderConfig(seed=13)).build(
        make_small_cnn()
    )


class TestSimulateInference:
    def test_timeline_is_contiguous(self, engine):
        timing = engine.create_execution_context().time_inference(jitter=0.0)
        events = sorted(
            timing.memcpy_events + timing.kernel_events,
            key=lambda e: e.start_us,
        )
        cursor = 0.0
        for event in events:
            assert event.start_us == pytest.approx(cursor, abs=1e-6)
            cursor += event.duration_us
        assert timing.total_us == pytest.approx(cursor)

    def test_one_event_per_bound_kernel(self, engine):
        timing = engine.create_execution_context().time_inference(jitter=0.0)
        assert len(timing.kernel_events) == engine.num_kernels

    def test_memcpy_events(self, engine):
        timing = engine.create_execution_context().time_inference(jitter=0.0)
        labels = [e.label for e in timing.memcpy_events]
        assert any("engine" in l for l in labels)
        assert any("input" in l for l in labels)
        no_upload = engine.create_execution_context().time_inference(
            include_engine_upload=False, jitter=0.0
        )
        assert len(no_upload.memcpy_events) == 1  # input only

    def test_profiler_inflates_and_records(self, engine):
        ctx = engine.create_execution_context()
        plain = ctx.time_inference(jitter=0.0)
        profiler = Nvprof()
        profiled = ctx.time_inference(jitter=0.0, profiler=profiler)
        assert profiled.total_us > plain.total_us
        assert profiler.num_inferences == 1

    def test_without_memcpy_property(self, engine):
        timing = engine.create_execution_context().time_inference(jitter=0.0)
        assert timing.without_memcpy_us() == pytest.approx(timing.kernel_us)
        assert timing.total_ms == pytest.approx(timing.total_us / 1e3)

    def test_mem_contention_one_is_bit_identical(self, engine):
        ctx = engine.create_execution_context()
        plain = ctx.time_inference(jitter=0.0)
        factored = ctx.time_inference(jitter=0.0, mem_contention=1.0)
        assert factored.total_us == plain.total_us

    def test_mem_contention_stretches_bandwidth_time(self, engine):
        ctx = engine.create_execution_context()
        plain = ctx.time_inference(jitter=0.0)
        contended = ctx.time_inference(jitter=0.0, mem_contention=1.5)
        assert contended.total_us > plain.total_us
        # Memcpys are pure DRAM traffic: each stretches by the factor.
        for before, after in zip(
            plain.memcpy_events, contended.memcpy_events
        ):
            assert after.duration_us == pytest.approx(
                before.duration_us * 1.5
            )
        # Compute-bound kernels hide moderate contention, so the
        # kernel total grows by less than the raw factor.
        assert contended.kernel_us < plain.kernel_us * 1.5

    def test_mem_contention_below_one_rejected(self, engine):
        ctx = engine.create_execution_context()
        with pytest.raises(ValueError, match="mem_contention"):
            ctx.time_inference(jitter=0.0, mem_contention=0.5)


class TestTimelineInputs:
    """Arguments that would give a silently wrong timeline are
    rejected up front, naming the argument."""

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"mem_contention": float("nan")}, "mem_contention"),
            ({"mem_contention": float("inf")}, "mem_contention"),
            ({"clock_mhz": -100.0}, "clock_mhz"),
            ({"clock_mhz": float("nan")}, "clock_mhz"),
            ({"clock_mhz": float("inf")}, "clock_mhz"),
            ({"batch_size": 2.5}, "batch_size"),
            ({"sm_fraction": 0.0}, r"sm_fraction must be in \(0, 1\]"),
            ({"sm_fraction": 1.5}, r"sm_fraction must be in \(0, 1\]"),
            ({"sm_fraction": float("nan")}, r"sm_fraction must be in \(0, 1\]"),
        ],
        ids=[
            "contention-nan", "contention-inf", "clock-negative",
            "clock-nan", "clock-inf", "batch-fractional", "sm-zero",
            "sm-above-one", "sm-nan",
        ],
    )
    def test_rejected(self, engine, kwargs, match):
        ctx = engine.create_execution_context()
        with pytest.raises(ValueError, match=match):
            ctx.time_inference(jitter=0.0, **kwargs)

    def test_numpy_integer_batch_is_a_batch(self, engine):
        ctx = engine.create_execution_context()
        plain = ctx.time_inference(jitter=0.0, batch_size=4)
        assert ctx.time_inference(jitter=0.0, batch_size=np.int64(4)) == plain

    @pytest.mark.parametrize("clock", [0, None])
    def test_zero_or_no_clock_means_max_clock(self, engine, clock):
        ctx = engine.create_execution_context()
        at_max = ctx.time_inference(
            jitter=0.0, clock_mhz=XAVIER_NX.max_gpu_clock_mhz
        )
        assert ctx.time_inference(jitter=0.0, clock_mhz=clock) == at_max


class TestColumnarTiming:
    @pytest.fixture(scope="class")
    def jittered(self, engine):
        ctx = engine.create_execution_context()
        rng = np.random.default_rng(3)
        return [ctx.time_inference(rng=rng) for _ in range(3)]

    def test_events_match_the_columns(self, jittered):
        for timing in jittered:
            assert [
                (e.kernel_name, e.layer_name, e.start_us, e.duration_us)
                for e in timing.kernel_events
            ] == list(zip(
                timing.kernel_names,
                timing.kernel_layers,
                timing.kernel_starts.tolist(),
                timing.kernel_durations.tolist(),
            ))
            assert timing.kernel_events is timing.kernel_events

    def test_nvprof_summaries_read_the_columns(self, engine, monkeypatch):
        from repro.hardware.gpu import InferenceTiming

        profiler = Nvprof()
        ctx = engine.create_execution_context()
        for seed in range(3):
            ctx.time_inference(rng=np.random.default_rng(seed), profiler=profiler)

        def no_events(self):
            raise AssertionError("summary built per-event records")

        for name in ("kernel_events", "memcpy_events"):
            monkeypatch.setattr(InferenceTiming, name, property(no_events))
        assert sum(s.calls for s in profiler.kernel_summary().values()) == (
            3 * engine.num_kernels
        )
        assert profiler.memcpy_summary()
        assert profiler.gpu_trace()
        assert profiler.invocation_durations(engine.kernel_names()[0])


#: The NX models whose jittered kernel totals differ most often between
#: a left-to-right and a compensated float sum.
SUM_MODELS = (
    "googlenet", "resnet18", "mobilenet_v1", "inception_v4", "tiny_yolov3",
)


class TestHostIndependentTotals:
    def _totals(self, farm):
        out = []
        for model in SUM_MODELS:
            ctx = farm.engine(model, "NX").create_execution_context()
            rng = np.random.default_rng(17)
            for _ in range(20):
                timing = ctx.time_inference(rng=rng)
                out.append(
                    (timing.kernel_us, timing.memcpy_us, timing.total_us)
                )
        return out

    def test_totals_do_not_depend_on_builtin_sum(self, farm, monkeypatch):
        import builtins

        sequential = self._totals(farm)
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "sum", neumaier_sum)
            compensated = self._totals(farm)
        assert [tuple(x.hex() for x in row) for row in compensated] == [
            tuple(x.hex() for x in row) for row in sequential
        ]

    def test_totals_are_left_to_right_sums(self, farm):
        ctx = farm.engine("inception_v4", "NX").create_execution_context()
        timing = ctx.time_inference(rng=np.random.default_rng(5))
        assert timing.kernel_us == left_to_right_sum(
            timing.kernel_durations.tolist()
        )
        assert timing.memcpy_us == left_to_right_sum(
            timing.memcpy_durations.tolist()
        )


class TestUnoptimizedBaseline:
    def test_slower_than_engine(self, engine, small_cnn):
        unopt_us = UnoptimizedRuntime(XAVIER_NX).inference_time_us(small_cnn)
        engine_us = engine.create_execution_context().time_inference(
            include_engine_upload=False, jitter=0.0
        ).total_us
        assert unopt_us > 5 * engine_us

    def test_agx_slightly_faster_baseline(self, small_cnn):
        """More CPU cores dispatch framework ops faster (paper Table
        VII: AGX unoptimized FPS is a bit higher)."""
        nx = UnoptimizedRuntime(XAVIER_NX).fps(small_cnn)
        agx = UnoptimizedRuntime(XAVIER_AGX).fps(small_cnn)
        assert agx > nx

    def test_jitter_changes_samples(self, small_cnn):
        runtime = UnoptimizedRuntime(XAVIER_NX)
        rng = np.random.default_rng(0)
        samples = {
            runtime.inference_time_us(small_cnn, rng=rng)
            for _ in range(4)
        }
        assert len(samples) == 4


class TestStreamScheduler:
    def test_max_threads_positive(self, engine):
        assert StreamScheduler(engine).max_supported_threads() >= 1

    def test_sweep_shapes(self, engine):
        stats = Tegrastats()
        result = StreamScheduler(engine).sweep(step=2, tegrastats=stats)
        assert result.points[0].threads == 1
        assert result.points[-1].threads == result.max_threads
        # Utilization grows monotonically with threads.
        utils = [p.gpu_utilization_pct for p in result.points]
        assert utils == sorted(utils)
        assert utils[-1] <= 86.2
        # tegrastats recorded one sample per sweep point
        assert len(stats.samples) == len(result.points)

    def test_fps_per_thread_flat_until_cap(self, engine):
        result = StreamScheduler(engine).sweep(step=2)
        unlimited = [
            p for p in result.points if not p.bandwidth_limited
        ]
        if len(unlimited) >= 2:
            assert unlimited[0].fps_per_thread == pytest.approx(
                unlimited[-1].fps_per_thread, rel=0.01
            )

    def test_aggregate_fps_monotonic(self, engine):
        result = StreamScheduler(engine).sweep(step=2)
        aggs = [p.aggregate_fps for p in result.points]
        assert all(b >= a * 0.999 for a, b in zip(aggs, aggs[1:]))

    def test_ram_grows_with_threads(self, engine):
        result = StreamScheduler(engine).sweep(step=2)
        rams = [p.ram_used_mb for p in result.points]
        assert rams == sorted(rams)

    def test_point_lookup(self, engine):
        result = StreamScheduler(engine).sweep(step=2)
        assert result.point(1).threads == 1
        with pytest.raises(KeyError):
            result.point(10_000)

    def test_run_device_override(self, engine):
        sched = StreamScheduler(engine, XAVIER_AGX)
        assert sched.device is XAVIER_AGX
        assert sched.max_supported_threads() >= 1

    def test_per_stream_memory_tracks_precision(self, engine):
        """FP32 activations are 4 bytes, FP16 are 2: the per-stream
        activation working set (above the fixed 24 MB scratch) must be
        exactly 2x, not the old hardcoded 2-bytes-for-everyone."""
        from tests.conftest import make_small_cnn

        fp32 = EngineBuilder(
            XAVIER_NX,
            BuilderConfig(seed=13, precision=PrecisionMode.FP32),
        ).build(make_small_cnn())
        scratch = 24.0  # MB, precision-independent per-context scratch
        m16 = StreamScheduler(engine).per_stream_memory_mb()
        m32 = StreamScheduler(fp32).per_stream_memory_mb()
        assert m32 > m16
        assert (m32 - scratch) / (m16 - scratch) == 2.0

    def test_per_stream_memory_scales_with_batch(self, engine):
        sched = StreamScheduler(engine)
        scratch = 24.0
        m1 = sched.per_stream_memory_mb(batch_size=1)
        m4 = sched.per_stream_memory_mb(batch_size=4)
        assert (m4 - scratch) == pytest.approx(4 * (m1 - scratch))

    def test_zero_ram_supports_zero_threads(self, engine):
        """When fault pressure leaves no usable RAM, not even one
        stream fits: the scheduler must say 0, not clamp to 1."""

        class StealEverything:
            def ram_stolen_mb(self, device):
                return device.ram_gb * 1024.0

            def bandwidth_scale(self):
                return 1.0

        sched = StreamScheduler(engine, faults=StealEverything())
        assert sched.max_supported_threads() == 0
        result = sched.sweep(step=2)
        assert result.max_threads == 0
        assert result.points == []

    def test_zero_traffic_means_unbounded_bandwidth(
        self, engine, monkeypatch
    ):
        """Regression: an engine whose bindings move no DRAM bytes
        used to divide by a zero per-thread bandwidth demand.  The
        Eq. 1 bound must become unlimited (RAM and host-submission
        bounds still apply), not crash."""
        sched = StreamScheduler(engine)
        monkeypatch.setattr(
            engine, "workload_bytes", lambda batch_size=1: 0
        )
        supported = sched.max_supported_threads()
        assert supported > 0
        result = sched.sweep(step=8)
        assert result.max_threads == supported
        assert all(not p.bandwidth_limited for p in result.points)

    def test_resident_engines_shrink_the_ram_bound(self, engine):
        """Regression: RAM already held by co-resident engines was
        billed only against the pool budget while the stream budget
        assumed the full usable share."""
        from repro.hardware.scheduler import USABLE_RAM_FRACTION

        sched = StreamScheduler(engine)
        free = sched.max_supported_threads()
        usable = XAVIER_NX.ram_gb * 1024.0 * USABLE_RAM_FRACTION
        per_stream = sched.per_stream_memory_mb()
        # Residency that leaves room for exactly one stream.
        crowded = StreamScheduler(
            engine, resident_mb=usable - per_stream * 1.5
        ).max_supported_threads()
        assert crowded == 1 < free

    def test_scheduler_reuses_one_execution_context(self, engine):
        """Regression: every timing call built a fresh
        ExecutionContext, so the per-context timeline-skeleton cache
        never hit and concurrency sweeps re-simulated the identical
        deterministic timeline each time."""
        sched = StreamScheduler(engine)
        assert sched._context is None
        first = sched.max_supported_threads()
        context = sched._context
        assert context is not None
        second = sched.max_supported_threads()
        assert sched._context is context
        assert first == second
        # Repeated same-clock calls share one cached skeleton.
        assert len(context._timing_cache) == 1
