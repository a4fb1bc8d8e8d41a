"""Dynamic micro-batching: queue policy and supervisor integration."""

import pytest

from repro.engine.builder import BuilderConfig, EngineBuilder
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultScenario
from repro.hardware.specs import XAVIER_NX
from repro.serving import (
    BatchingConfig,
    BatchingQueue,
    BatchRequest,
    InferenceSupervisor,
    StreamSpec,
    SupervisorConfig,
    coalesce,
)


@pytest.fixture(scope="module")
def engine(small_cnn):
    return EngineBuilder(XAVIER_NX, BuilderConfig(seed=0)).build(small_cnn)


def _req(i, arrival_ms, stream=None):
    return BatchRequest(
        stream=stream or f"cam{i}", frame=0, arrival_ms=arrival_ms
    )


# ----------------------------------------------------------------------
# queue policy
# ----------------------------------------------------------------------
class TestBatchingQueue:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            BatchingConfig(max_batch=0)
        with pytest.raises(ValueError, match="max_wait_ms"):
            BatchingConfig(max_wait_ms=-1.0)

    def test_closes_immediately_when_full(self):
        queue = BatchingQueue(BatchingConfig(max_batch=2, max_wait_ms=5.0))
        assert queue.submit(_req(0, 0.0)) is None
        batch = queue.submit(_req(1, 0.1))
        assert batch is not None
        assert batch.size == 2
        # Full batches never wait for the deadline.
        assert batch.dispatch_ms == 0.1
        assert len(queue) == 0

    def test_underfull_batch_closes_at_deadline(self):
        queue = BatchingQueue(BatchingConfig(max_batch=8, max_wait_ms=2.0))
        queue.submit(_req(0, 1.0))
        assert queue.deadline_ms == 3.0
        assert queue.poll(2.9) is None  # not yet
        batch = queue.poll(3.5)
        assert batch is not None
        assert batch.size == 1
        # Dispatch happens *at* the deadline, not when poll noticed.
        assert batch.dispatch_ms == 3.0
        assert batch.wait_ms(batch.requests[0]) == 2.0

    def test_deadline_set_by_oldest_request(self):
        queue = BatchingQueue(BatchingConfig(max_batch=8, max_wait_ms=2.0))
        queue.submit(_req(0, 1.0))
        queue.submit(_req(1, 2.5))
        assert queue.deadline_ms == 3.0  # oldest rules

    def test_submit_past_deadline_raises(self):
        queue = BatchingQueue(BatchingConfig(max_batch=8, max_wait_ms=2.0))
        queue.submit(_req(0, 0.0))
        with pytest.raises(RuntimeError, match="poll"):
            queue.submit(_req(1, 5.0))

    def test_flush(self):
        queue = BatchingQueue(BatchingConfig(max_batch=8, max_wait_ms=2.0))
        assert queue.flush() is None
        queue.submit(_req(0, 0.0))
        batch = queue.flush(now_ms=0.5)
        # End-of-workload flush dispatches now, not at the deadline.
        assert batch.dispatch_ms == 0.5
        assert len(queue) == 0

    def test_flush_without_clock_stamps_newest_arrival(self):
        # Regression: flush() used to stamp a wall-clock-ish "now",
        # breaking bit-identity of seeded replays.  Without now_ms the
        # stamp must derive from the submitted schedule alone.
        queue = BatchingQueue(BatchingConfig(max_batch=8, max_wait_ms=2.0))
        queue.submit(_req(0, 1.0))
        queue.submit(_req(1, 1.7))
        batch = queue.flush()
        assert batch.dispatch_ms == 1.7
        # Identical schedule, identical stamp: replay-safe.
        queue.submit(_req(0, 1.0))
        queue.submit(_req(1, 1.7))
        assert queue.flush().dispatch_ms == batch.dispatch_ms

    def test_flush_clamps_now_into_the_batch_window(self):
        config = BatchingConfig(max_batch=8, max_wait_ms=2.0)
        # A flush cannot time-travel before a request it contains...
        queue = BatchingQueue(config)
        queue.submit(_req(0, 0.0))
        queue.submit(_req(1, 1.5))
        assert queue.flush(now_ms=0.2).dispatch_ms == 1.5
        # ...nor outwait the oldest request's max_wait_ms budget.
        queue.submit(_req(0, 0.0))
        assert queue.flush(now_ms=99.0).dispatch_ms == 2.0

    def test_coalesce_sizes_and_order(self):
        config = BatchingConfig(max_batch=3, max_wait_ms=2.0)
        requests = [_req(i, 0.0) for i in range(7)]
        batches = coalesce(requests, config)
        assert [b.size for b in batches] == [3, 3, 1]
        flattened = [r.stream for b in batches for r in b.requests]
        assert flattened == [f"cam{i}" for i in range(7)]
        # The under-full tail waited out its deadline.
        assert batches[-1].dispatch_ms == 2.0

    def test_coalesce_respects_deadlines_between_arrivals(self):
        config = BatchingConfig(max_batch=4, max_wait_ms=1.0)
        batches = coalesce(
            [_req(0, 0.0), _req(1, 0.5), _req(2, 3.0)], config
        )
        assert [b.size for b in batches] == [2, 1]
        assert batches[0].dispatch_ms == 1.0  # first request's deadline
        assert batches[1].dispatch_ms == 4.0


# ----------------------------------------------------------------------
# supervisor integration
# ----------------------------------------------------------------------
class TestSupervisorBatching:
    def _serve(self, engine, batching, streams=4, frames=4, **kwargs):
        supervisor = InferenceSupervisor(
            engine,
            streams=[StreamSpec(f"cam{i}") for i in range(streams)],
            config=SupervisorConfig(deadline_ms=33.0),
            batching=batching,
            seed=3,
            **kwargs,
        )
        return supervisor.serve(frames=frames)

    def test_records_carry_batch_size(self, engine):
        report = self._serve(engine, BatchingConfig(max_batch=4))
        assert all(r.batch_size == 4 for r in report.records)
        assert report.deadline_hit_rate == 1.0

    def test_underfull_tail_batch(self, engine):
        report = self._serve(
            engine, BatchingConfig(max_batch=3), streams=4, frames=2
        )
        sizes = [
            r.batch_size for r in report.records if r.frame == 0
        ]
        assert sizes == [3, 3, 3, 1]

    def test_batched_digests_match_unbatched(self, engine):
        """Coalescing must not change the numbers: each request's
        output slice is bit-identical to its solo execution."""
        batched = self._serve(engine, BatchingConfig(max_batch=4))
        solo = self._serve(engine, None)
        key = lambda r: (r.frame, r.stream)  # noqa: E731
        batched_digests = {key(r): r.output_digest for r in batched.records}
        solo_digests = {key(r): r.output_digest for r in solo.records}
        assert batched_digests == solo_digests
        assert all(d for d in solo_digests.values())

    def test_max_batch_one_is_bit_identical_to_unbatched(self, engine):
        """A degenerate max_batch=1 queue with a single stream must
        reproduce unbatched serving record-for-record."""
        batched = self._serve(
            engine,
            BatchingConfig(max_batch=1, max_wait_ms=0.0),
            streams=1,
        )
        solo = self._serve(engine, None, streams=1)
        assert batched.records == solo.records

    def test_max_batch_one_multi_stream_only_adds_serialization(
        self, engine
    ):
        """With several streams, max_batch=1 singleton batches keep
        solo timings and digests; only GPU serialization (each batch
        waiting behind the previous one) is added on top."""
        batched = self._serve(
            engine, BatchingConfig(max_batch=1, max_wait_ms=0.0)
        )
        solo = self._serve(engine, None)
        assert [
            (r.frame, r.stream, r.ok, r.attempts, r.output_digest)
            for r in batched.records
        ] == [
            (r.frame, r.stream, r.ok, r.attempts, r.output_digest)
            for r in solo.records
        ]
        for b, s in zip(batched.records, solo.records):
            assert b.latency_ms >= s.latency_ms
        # The first batch of every frame has nothing to wait behind.
        for b, s in zip(batched.records, solo.records):
            if b.stream == "cam0":
                assert b.latency_ms == s.latency_ms

    def test_batches_serialize_on_the_gpu(self, engine):
        """With two full batches per frame the second waits behind the
        first: its members' latency includes the serialization delay."""
        report = self._serve(
            engine, BatchingConfig(max_batch=2), streams=4, frames=1
        )
        lat = [r.latency_ms for r in report.records]
        assert lat[0] == lat[1]
        assert lat[2] == lat[3]
        assert lat[2] > lat[0]

    def test_wait_counts_against_deadline(self, engine):
        """An under-full batch's coalescing wait is charged to the
        request: a max_wait above the deadline blows the SLO."""
        supervisor = InferenceSupervisor(
            engine,
            streams=[StreamSpec("solo")],
            config=SupervisorConfig(deadline_ms=5.0),
            batching=BatchingConfig(max_batch=8, max_wait_ms=10.0),
        )
        report = supervisor.serve(frames=2)
        assert all(r.ok for r in report.records)
        assert all(not r.deadline_met for r in report.records)
        assert all(r.latency_ms > 10.0 for r in report.records)

    def test_admission_control_sheds_before_batching(self, engine):
        plan = FaultPlan(
            scenarios=[
                FaultScenario(
                    kind=FaultKind.OOM,
                    start_s=0.0,
                    duration_s=10.0,
                    severity=5,
                    amplitude=0.995,  # leaves room for ~1 stream
                )
            ]
        )
        report = self._serve(
            engine,
            BatchingConfig(max_batch=4),
            streams=3,
            frames=3,
            injector=FaultInjector(plan),
        )
        served = [r for r in report.records if not r.dropped]
        shed = [r for r in report.records if r.dropped]
        assert served and shed
        # Shed streams never reach the batcher; survivors batch at the
        # reduced population.
        assert all(r.fault == "oom_shed" for r in shed)
        assert all(r.batch_size == len(served) // 3 for r in served)

    def test_batched_retry_on_transient_fault(self, engine):
        plan = FaultPlan(
            scenarios=[
                FaultScenario(
                    kind=FaultKind.KERNEL_LAUNCH_FAIL, probability=0.4
                )
            ],
            seed=11,
        )
        report = self._serve(
            engine,
            BatchingConfig(max_batch=4),
            frames=6,
            injector=FaultInjector(plan),
        )
        assert report.total_retries > 0
        # Members of the same micro-batch share the batch's fate.
        by_frame = {}
        for r in report.records:
            by_frame.setdefault(r.frame, []).append(r)
        for members in by_frame.values():
            assert len({(m.ok, m.attempts, m.latency_ms)
                        for m in members}) == 1

    def test_replay_is_deterministic(self, engine):
        a = self._serve(engine, BatchingConfig(max_batch=4))
        b = self._serve(engine, BatchingConfig(max_batch=4))
        assert a.records == b.records
