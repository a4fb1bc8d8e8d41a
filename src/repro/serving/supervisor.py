"""Resilient inference serving: faults in, degraded-but-alive out.

:class:`InferenceSupervisor` wraps an engine (plus an optional
fallback ladder of progressively cheaper engines) and serves a
frame-synchronous multi-stream workload under a
:class:`repro.faults.FaultInjector`.  The supervision mechanisms map
one-to-one onto the paper's characterized failure modes:

* **watchdog deadlines** — a hung kernel (Finding 6's latency tail,
  amplified) is cut off at the watchdog budget and retried instead of
  stalling the stream forever;
* **bounded retry with exponential backoff + jitter** — transient
  launch failures and NaN-producing compute faults get
  ``max_retries`` more attempts, each attempt's latency charged
  against the request;
* **admission control** — under RAM pressure (the paper's Eq. 1 /
  stream-count exhaustion) the lowest-priority streams are shed so the
  remaining streams keep their buffers instead of everyone OOMing;
* **precision/model fallback ladder** — when DVFS throttling makes the
  deadline unmeetable at the current level, the supervisor steps down
  to a cheaper engine (INT8 → FP16 → a lite model), and climbs back
  once latencies recover;
* **plan integrity audit + rebuild** — :func:`load_or_rebuild`
  refuses a ``.plan`` file that fails its lint audit and rebuilds from
  the source network, reusing a :class:`~repro.engine.timing_cache
  .TimingCache` so the rebuild binds the same tactics (the mitigation
  for Finding 2 non-determinism).

The *unsupervised* baseline (``supervised=False``) runs the identical
workload against the identical fault world with every mechanism
disabled — the comparison the SLO report prints.  With a zero-fault
plan the supervised path is bit-identical to the unsupervised one:
supervision adds no behavioral change until a fault fires.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.engine import Engine, ExecutionContext
from repro.faults.events import FaultError, FaultKind
from repro.faults.injector import FaultInjector
from repro.faults.scenario import FaultPlan
from repro.hardware.clocks import ClockDomain
from repro.hardware.scheduler import USABLE_RAM_FRACTION, StreamScheduler
from repro.hardware.specs import DeviceSpec
from repro.profiling.tegrastats import TegrastatsSample
from repro.serving.batching import BatchingConfig, BatchRequest, coalesce
from repro.telemetry.bus import BUS, SpanKind


@dataclass(frozen=True)
class StreamSpec:
    """One request stream (camera feed); higher priority sheds last."""

    name: str
    priority: int = 0


@dataclass
class SupervisorConfig:
    """Resilience policy knobs."""

    deadline_ms: float = 33.0
    frame_period_s: float = 1.0 / 30.0
    #: Watchdog budget per attempt, as a multiple of the deadline.
    watchdog_factor: float = 3.0
    #: Extra attempts after the first failed one.
    max_retries: int = 2
    backoff_base_ms: float = 2.0
    backoff_factor: float = 2.0
    #: Jitter band as a fraction of the nominal backoff (+/-).
    backoff_jitter: float = 0.25
    max_backoff_ms: float = 50.0
    #: Consecutive deadline misses before stepping down the ladder.
    degrade_after: int = 2
    #: Consecutive comfortable hits before stepping back up.
    recover_after: int = 6
    #: A hit is "comfortable" below this fraction of the deadline.
    recover_margin: float = 0.5
    #: RAM kept free over the strict per-stream budget (MB).
    admission_headroom_mb: float = 0.0
    #: Charge the engine-upload memcpy on every request (serving keeps
    #: weights resident, so the default excludes it).
    include_engine_upload: bool = False

    def __post_init__(self) -> None:
        # A NaN deadline or watchdog compares False with every latency,
        # so nothing would ever miss or be cut: reject it here.
        for name in ("deadline_ms", "frame_period_s", "watchdog_factor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"{name} must be finite and positive, got {value}"
                )
        for name in (
            "backoff_base_ms", "backoff_factor", "backoff_jitter",
            "max_backoff_ms", "recover_margin", "admission_headroom_mb",
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{name} must be finite and non-negative, got {value}"
                )
        for name in ("max_retries", "degrade_after", "recover_after"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")

    @property
    def watchdog_ms(self) -> float:
        return self.deadline_ms * self.watchdog_factor

    def backoff_ms(self, attempt: int, rng: np.random.Generator) -> float:
        """Backoff before retry ``attempt`` (1-based), jittered.

        The *jittered* result is clamped to ``[0, max_backoff_ms]``:
        the cap is a hard budget on how long a retry may stall a
        frame, so a +25% draw on an already-capped nominal must not
        exceed it (and a wide negative band must not go below zero).
        """
        nominal = min(
            self.max_backoff_ms,
            self.backoff_base_ms * self.backoff_factor ** (attempt - 1),
        )
        jitter = self.backoff_jitter * float(rng.uniform(-1.0, 1.0))
        return min(self.max_backoff_ms, max(0.0, nominal * (1.0 + jitter)))


@dataclass(frozen=True)
class RequestRecord:
    """Outcome of one (stream, frame) request."""

    frame: int
    stream: str
    t_s: float
    ok: bool
    dropped: bool
    deadline_met: bool
    latency_ms: float
    attempts: int
    level: int
    fault: str = ""
    output_digest: str = ""
    #: Micro-batch size this request was served in (1 = unbatched).
    batch_size: int = 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "frame": self.frame,
            "stream": self.stream,
            "t_s": self.t_s,
            "ok": self.ok,
            "dropped": self.dropped,
            "deadline_met": self.deadline_met,
            "latency_ms": self.latency_ms,
            "attempts": self.attempts,
            "level": self.level,
            "fault": self.fault,
            "output_digest": self.output_digest,
            "batch_size": self.batch_size,
        }


@dataclass
class ServiceReport:
    """SLO attainment of one serving run."""

    engine_name: str
    device_name: str
    deadline_ms: float
    supervised: bool
    records: List[RequestRecord] = field(default_factory=list)
    actions: List[Tuple[float, str]] = field(default_factory=list)
    fault_log: object = None  # FaultLog of the run's injector

    # ------------------------------------------------------------------
    @property
    def requests(self) -> int:
        return len(self.records)

    @property
    def served(self) -> int:
        return sum(1 for r in self.records if not r.dropped)

    @property
    def dropped_frames(self) -> int:
        return sum(1 for r in self.records if r.dropped)

    @property
    def failures(self) -> int:
        return sum(1 for r in self.records if not r.dropped and not r.ok)

    @property
    def deadline_hits(self) -> int:
        return sum(1 for r in self.records if r.deadline_met)

    @property
    def deadline_hit_rate(self) -> float:
        """Fraction of *offered* requests served correctly in time."""
        if not self.records:
            return 0.0
        return self.deadline_hits / len(self.records)

    @property
    def fallback_occupancy(self) -> float:
        """Fraction of served requests answered by a fallback engine."""
        served = [r for r in self.records if not r.dropped]
        if not served:
            return 0.0
        return sum(1 for r in served if r.level > 0) / len(served)

    @property
    def total_retries(self) -> int:
        return sum(max(0, r.attempts - 1) for r in self.records)

    @property
    def mean_latency_ms(self) -> float:
        served = [r.latency_ms for r in self.records if not r.dropped]
        if not served:
            return 0.0
        return float(np.mean(served))

    def summary(self) -> str:
        mode = "supervised" if self.supervised else "unsupervised"
        return (
            f"{self.engine_name} on {self.device_name} ({mode}): "
            f"{self.requests} requests, "
            f"deadline-hit {100 * self.deadline_hit_rate:.1f}%, "
            f"{self.dropped_frames} dropped, {self.failures} failed, "
            f"{self.total_retries} retries, "
            f"fallback occupancy {100 * self.fallback_occupancy:.1f}%, "
            f"mean latency {self.mean_latency_ms:.2f} ms"
        )

    # ------------------------------------------------------------------
    def stream_stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-stream SLO statistics (the serving dashboard's rows)."""
        streams: Dict[str, List[RequestRecord]] = {}
        for record in self.records:
            streams.setdefault(record.stream, []).append(record)
        out: Dict[str, Dict[str, Any]] = {}
        for name, records in sorted(streams.items()):
            served = [r.latency_ms for r in records if not r.dropped]
            arr = np.asarray(served) if served else np.zeros(0)
            out[name] = {
                "requests": len(records),
                "served": len(served),
                "dropped": sum(1 for r in records if r.dropped),
                "failures": sum(
                    1 for r in records if not r.dropped and not r.ok
                ),
                "deadline_hits": sum(1 for r in records if r.deadline_met),
                "deadline_hit_rate": (
                    sum(1 for r in records if r.deadline_met) / len(records)
                    if records else 0.0
                ),
                "retries": sum(max(0, r.attempts - 1) for r in records),
                "mean_latency_ms": float(arr.mean()) if served else 0.0,
                "p50_latency_ms": (
                    float(np.percentile(arr, 50)) if served else 0.0
                ),
                "p95_latency_ms": (
                    float(np.percentile(arr, 95)) if served else 0.0
                ),
                "p99_latency_ms": (
                    float(np.percentile(arr, 99)) if served else 0.0
                ),
            }
        return out

    def to_dict(self, include_records: bool = False) -> Dict[str, Any]:
        """Stable-schema snapshot (``trtsim.service_report/1``)."""
        doc: Dict[str, Any] = {
            "schema": "trtsim.service_report/1",
            "engine": self.engine_name,
            "device": self.device_name,
            "deadline_ms": self.deadline_ms,
            "supervised": self.supervised,
            "totals": {
                "requests": self.requests,
                "served": self.served,
                "dropped": self.dropped_frames,
                "failures": self.failures,
                "deadline_hits": self.deadline_hits,
                "deadline_hit_rate": self.deadline_hit_rate,
                "retries": self.total_retries,
                "fallback_occupancy": self.fallback_occupancy,
                "mean_latency_ms": self.mean_latency_ms,
            },
            "streams": self.stream_stats(),
            "actions": [
                {"t_s": t, "action": text} for t, text in self.actions
            ],
            "faults": (
                len(self.fault_log) if self.fault_log is not None else 0
            ),
        }
        if include_records:
            doc["records"] = [r.to_dict() for r in self.records]
        return doc

    def to_json(
        self, include_records: bool = False, indent: Optional[int] = 2
    ) -> str:
        return json.dumps(
            self.to_dict(include_records=include_records), indent=indent
        )


class InferenceSupervisor:
    """Serves a multi-stream workload, resiliently or not.

    Args:
        engine: the primary engine.
        fallbacks: cheaper engines, fastest last (the degradation
            ladder below the primary).
        streams: the request streams; priority decides shed order.
        config: resilience policy; ``config.deadline_ms`` is the SLO.
        injector: fault world (defaults to a zero-fault injector).
        supervised: disable every resilience mechanism when False —
            the baseline the SLO comparison is made against.
        seed: workload seed; inputs and timing noise derive from it.
        batching: micro-batching policy.  When set, each frame's
            admitted requests are coalesced through a
            :class:`~repro.serving.batching.BatchingQueue` and served
            as batched engine executions that serialize on the GPU;
            ``None`` (the default) serves each admitted stream as its
            own one-request batch, with no GPU serialization between
            them.
    """

    def __init__(
        self,
        engine: Engine,
        fallbacks: Sequence[Engine] = (),
        streams: Sequence[StreamSpec] = (StreamSpec("stream0"),),
        config: Optional[SupervisorConfig] = None,
        injector: Optional[FaultInjector] = None,
        device: Optional[DeviceSpec] = None,
        supervised: bool = True,
        seed: int = 0,
        batching: Optional[BatchingConfig] = None,
    ):
        if not streams:
            raise ValueError("need at least one stream")
        self.engines: List[Engine] = [engine, *fallbacks]
        self.streams = list(streams)
        self.config = config or SupervisorConfig()
        self.device = device or engine.device
        self.injector = injector or FaultInjector()
        self.supervised = supervised
        self.seed = seed
        self.batching = batching
        self.clock = ClockDomain(self.device)
        hook = self.injector.executor_hook()
        self._contexts: List[ExecutionContext] = [
            e.create_execution_context(self.device, layer_hook=hook)
            for e in self.engines
        ]
        self._per_stream_mb = StreamScheduler(
            engine, self.device
        ).per_stream_memory_mb()
        self._level = 0
        self._miss_streak = 0
        self._hit_streak = 0
        self._shed: Dict[str, bool] = {s.name: False for s in self.streams}

    def ladder_contexts(self) -> List[ExecutionContext]:
        """The long-lived execution contexts of the engine ladder
        (level 0 = primary).  Callers timing the ladder should reuse
        these — each carries its engine's timeline-skeleton cache."""
        return self._contexts

    # ------------------------------------------------------------------
    @classmethod
    def from_store(
        cls,
        store,
        network,
        device: DeviceSpec,
        fallback_networks: Sequence[Any] = (),
        builder_config=None,
        provider=None,
        **kwargs: Any,
    ) -> "InferenceSupervisor":
        """Build a supervisor whose engines all route through an
        :class:`~repro.engine.store.EngineStore`.

        The primary engine and every fallback-ladder engine come from
        ``store.get_or_build``, so a restarted server re-acquires its
        entire ladder as warm store hits — zero tactic auctions on the
        request path, bit-identical bindings across restarts.

        ``provider`` is the canonical execution-provider axis; it is
        forwarded to every ``get_or_build`` so the whole ladder is
        built (and keyed in the store) for the same provider stack.
        """
        engine, _ = store.get_or_build(
            network, device, builder_config, provider=provider
        )
        fallbacks = [
            store.get_or_build(
                fb, device, builder_config, provider=provider
            )[0]
            for fb in fallback_networks
        ]
        return cls(engine, fallbacks=fallbacks, device=device, **kwargs)

    # ------------------------------------------------------------------
    # workload
    # ------------------------------------------------------------------
    def _input_for(self, level: int, stream_idx: int, frame: int) -> Dict:
        engine = self.engines[level]
        spec = engine.graph.input_specs[engine.input_name]
        rng = np.random.default_rng((self.seed, 17, stream_idx, frame))
        batch = rng.normal(size=(1,) + tuple(spec.shape)).astype(np.float32)
        return {engine.input_name: batch}

    @staticmethod
    def _digest(outputs: Dict[str, np.ndarray]) -> str:
        h = hashlib.sha256()
        for name in sorted(outputs):
            h.update(name.encode())
            h.update(np.ascontiguousarray(outputs[name]).tobytes())
        return h.hexdigest()[:16]

    # ------------------------------------------------------------------
    # admission control
    # ------------------------------------------------------------------
    def _resident_engine_mb(self) -> float:
        """RAM held by the resident engine ladder (primary + fallbacks).

        These bytes were previously billed only against the
        :class:`~repro.engine.store.EnginePool` budget while the stream
        budget assumed the full ``USABLE_RAM_FRACTION`` share — the two
        together could over-commit board RAM.  Admission control now
        deducts residency before dividing by the per-stream working
        set.
        """
        return sum(e.size_bytes for e in self.engines) / (1024.0 * 1024.0)

    def _streams_that_fit(self) -> int:
        usable = self.device.ram_gb * 1024.0 * USABLE_RAM_FRACTION
        budget = (
            usable
            - self._resident_engine_mb()
            - self.injector.ram_stolen_mb(self.device)
            - self.config.admission_headroom_mb
        )
        return max(0, int(budget // self._per_stream_mb))

    def _admit(self, t_s: float) -> List[Tuple[int, StreamSpec]]:
        """Shed lowest-priority streams until the rest fit in RAM."""
        indexed = list(enumerate(self.streams))
        fit = self._streams_that_fit()
        if fit >= len(indexed):
            admitted = indexed
        else:
            by_priority = sorted(
                indexed, key=lambda p: (-p[1].priority, p[0])
            )
            admitted = sorted(by_priority[:fit], key=lambda p: p[0])
        kept = {s.name for _, s in admitted}
        for _, stream in indexed:
            now_shed = stream.name not in kept
            if now_shed != self._shed[stream.name]:
                self._shed[stream.name] = now_shed
                verb = "shed" if now_shed else "readmitted"
                self.actions.append(
                    (t_s, f"{verb} stream {stream.name!r} "
                          f"(priority {stream.priority})")
                )
                if now_shed:
                    self.injector.emit(
                        FaultKind.OOM,
                        severity=1,
                        action="shed",
                        stream=stream.name,
                    )
        return admitted

    # ------------------------------------------------------------------
    # fallback ladder
    # ------------------------------------------------------------------
    def _adapt_level(self, record: RequestRecord) -> None:
        cfg = self.config
        if record.deadline_met and (
            record.latency_ms <= cfg.recover_margin * cfg.deadline_ms
        ):
            self._hit_streak += 1
            self._miss_streak = 0
            if self._hit_streak >= cfg.recover_after and self._level > 0:
                self._level -= 1
                self._hit_streak = 0
                self.actions.append(
                    (record.t_s,
                     f"recovered to level {self._level} "
                     f"({self.engines[self._level].name})")
                )
        elif not record.deadline_met:
            self._miss_streak += 1
            self._hit_streak = 0
            if (
                self._miss_streak >= cfg.degrade_after
                and self._level < len(self.engines) - 1
            ):
                self._level += 1
                self._miss_streak = 0
                self.actions.append(
                    (record.t_s,
                     f"degraded to level {self._level} "
                     f"({self.engines[self._level].name})")
                )
        else:
            self._miss_streak = 0
            self._hit_streak = 0

    # ------------------------------------------------------------------
    # request execution
    # ------------------------------------------------------------------
    def _attempt(
        self,
        level: int,
        member_idx: Sequence[int],
        frame: int,
        attempt: int,
        clock_mhz: float,
    ) -> Tuple[Optional[Dict], float, str]:
        """One engine execution over the ``member_idx`` streams:
        (stacked outputs|None, latency_ms, fault)."""
        context = self._contexts[level]
        engine = self.engines[level]
        if len(member_idx) == 1:
            # A lone stream runs its own input array, timed under its
            # own (stream, frame, attempt) key.
            inputs = self._input_for(level, member_idx[0], frame)
            rng = np.random.default_rng(
                (self.seed, member_idx[0], frame, attempt)
            )
        else:
            inputs = {
                engine.input_name: np.concatenate(
                    [
                        self._input_for(level, i, frame)[engine.input_name]
                        for i in member_idx
                    ],
                    axis=0,
                )
            }
            rng = np.random.default_rng(
                (self.seed, 29, frame, *member_idx, attempt)
            )
        fault = ""
        outputs: Optional[Dict] = None
        try:
            result = context.execute(**inputs)
            outputs = result.outputs
            # One poisoned sample poisons the whole micro-batch — the
            # coalesced execution is a single kernel sequence.
            if not all(
                np.isfinite(a).all() for a in outputs.values()
            ):
                fault = FaultKind.COMPUTE_NAN.value
                outputs = None
        except FaultError as exc:
            fault = exc.kind.value
        timing = context.time_inference(
            clock_mhz=clock_mhz,
            include_engine_upload=self.config.include_engine_upload,
            rng=rng,
            hardware_hook=self.injector,
            batch_size=len(member_idx),
        )
        return outputs, timing.total_ms, fault

    def _serve(
        self,
        member_idx: Sequence[int],
        frame: int,
        t_s: float,
        clock_mhz: float,
        wait_ms: float,
    ) -> List[RequestRecord]:
        """Serve one batch of streams; every member shares its fate.

        ``wait_ms`` is the queue delay already accumulated before the
        batch reached the GPU (coalescing wait + serialization behind
        earlier batches); it counts against every member's deadline.
        """
        cfg = self.config
        level = self._level if self.supervised else 0
        total_ms = wait_ms
        attempts = 0
        last_fault = ""
        outputs: Optional[Dict] = None
        max_attempts = 1 + (cfg.max_retries if self.supervised else 0)
        while attempts < max_attempts:
            attempts += 1
            outputs, attempt_ms, fault = self._attempt(
                level, member_idx, frame, attempts, clock_mhz
            )
            if self.supervised and attempt_ms > cfg.watchdog_ms:
                # Watchdog fired: the attempt is cut off at its budget
                # and treated as a (probably hung) failure.
                attempt_ms = cfg.watchdog_ms
                fault = fault or FaultKind.KERNEL_HANG.value
                outputs = None
                what = (
                    f"{self.streams[member_idx[0]].name!r}"
                    if self.batching is None
                    else f"batch x{len(member_idx)}"
                )
                self.actions.append(
                    (t_s,
                     f"watchdog cut attempt {attempts} of {what}#{frame} "
                     f"at {cfg.watchdog_ms:.1f} ms")
                )
            total_ms += attempt_ms
            if fault:
                last_fault = fault
            if outputs is not None:
                break
            if self.supervised and attempts < max_attempts:
                backoff_key = (
                    (self.seed, 23, member_idx[0], frame, attempts)
                    if len(member_idx) == 1
                    else (self.seed, 23, frame, *member_idx, attempts)
                )
                backoff_rng = np.random.default_rng(backoff_key)
                total_ms += cfg.backoff_ms(attempts, backoff_rng)
        ok = outputs is not None
        records = []
        for pos, stream_idx in enumerate(member_idx):
            digest = ""
            if ok:
                digest = self._digest(
                    {
                        name: arr[pos : pos + 1]
                        for name, arr in outputs.items()
                    }
                )
            records.append(
                RequestRecord(
                    frame=frame,
                    stream=self.streams[stream_idx].name,
                    t_s=t_s,
                    ok=ok,
                    dropped=False,
                    deadline_met=ok and total_ms <= cfg.deadline_ms,
                    latency_ms=total_ms,
                    attempts=attempts,
                    level=level,
                    fault=last_fault,
                    output_digest=digest,
                    batch_size=len(member_idx),
                )
            )
        return records

    def _serve_frame_batched(
        self,
        admitted_idx: List[int],
        frame: int,
        t_s: float,
        clock_mhz: float,
    ) -> List[RequestRecord]:
        """Coalesce one frame's admitted requests into micro-batches.

        Frame-synchronous streams all arrive at the frame tick, so full
        batches dispatch immediately; the final under-full batch waits
        ``max_wait_ms`` for company that never comes — exactly the
        latency/throughput trade dynamic batching makes.  Batches then
        serialize on the single GPU in closure order.
        """
        requests = [
            BatchRequest(
                stream=self.streams[i].name,
                frame=frame,
                arrival_ms=0.0,
                payload=i,
            )
            for i in admitted_idx
        ]
        records: List[RequestRecord] = []
        busy_ms = 0.0
        for batch in coalesce(requests, self.batching):
            start_ms = max(batch.dispatch_ms, busy_ms)
            member_idx = [r.payload for r in batch.requests]
            batch_records = self._serve(
                member_idx, frame, t_s, clock_mhz, wait_ms=start_ms
            )
            records.extend(batch_records)
            # Every member reports the same total (wait + execution);
            # the GPU is busy for the execution part only.
            busy_ms = batch_records[0].latency_ms
        return records

    # ------------------------------------------------------------------
    @staticmethod
    def _record(report: ServiceReport, record: RequestRecord) -> None:
        """Append one outcome and publish its request span."""
        report.records.append(record)
        if BUS.active:
            BUS.emit(
                SpanKind.REQUEST,
                record.stream,
                dur_us=record.latency_ms * 1e3,
                stream=record.stream,
                frame=record.frame,
                ok=record.ok,
                dropped=record.dropped,
                deadline_met=record.deadline_met,
                latency_ms=record.latency_ms,
                attempts=record.attempts,
                level=record.level,
                fault=record.fault,
                batch_size=record.batch_size,
            )

    def _settle(
        self, report: ServiceReport, records: List[RequestRecord]
    ) -> None:
        """Record served requests, adapting the ladder after each."""
        for record in records:
            self._record(report, record)
            if self.supervised:
                self._adapt_level(record)

    def serve(self, frames: int) -> ServiceReport:
        """Run ``frames`` frame cycles over every stream."""
        cfg = self.config
        report = ServiceReport(
            engine_name=self.engines[0].name,
            device_name=self.device.name,
            deadline_ms=cfg.deadline_ms,
            supervised=self.supervised,
            fault_log=self.injector.log,
        )
        self.actions = report.actions
        for frame in range(frames):
            t_s = frame * cfg.frame_period_s
            if BUS.active:
                BUS.set_time(t_s)
            self.injector.set_time(t_s)
            clock_mhz = self.injector.apply_thermal(self.clock)
            if BUS.active:
                BUS.emit(
                    SpanKind.CLOCK, "gpu", clock_mhz=clock_mhz, frame=frame
                )
            events_before = len(self.injector.log)

            if self.supervised:
                admitted = self._admit(t_s)
                admitted_idx = {i for i, _ in admitted}
                oom_all = False
            else:
                admitted_idx = set(range(len(self.streams)))
                # Without admission control, RAM pressure beyond the
                # aggregate working set fails *every* allocation.
                oom_all = self._streams_that_fit() < len(self.streams)

            for stream_idx, stream in enumerate(self.streams):
                if stream_idx not in admitted_idx:
                    self._record(
                        report,
                        RequestRecord(
                            frame=frame,
                            stream=stream.name,
                            t_s=t_s,
                            ok=False,
                            dropped=True,
                            deadline_met=False,
                            latency_ms=0.0,
                            attempts=0,
                            level=self._level,
                            fault="oom_shed",
                        )
                    )
                    continue
                if oom_all:
                    self._record(
                        report,
                        RequestRecord(
                            frame=frame,
                            stream=stream.name,
                            t_s=t_s,
                            ok=False,
                            dropped=False,
                            deadline_met=False,
                            latency_ms=0.0,
                            attempts=1,
                            level=0,
                            fault=FaultKind.OOM.value,
                        )
                    )
                    continue
                if self.batching is None:
                    # Each stream is its own batch; the ladder level
                    # adapts after every request.
                    self._settle(
                        report,
                        self._serve(
                            [stream_idx], frame, t_s, clock_mhz,
                            wait_ms=0.0,
                        ),
                    )

            if self.batching is not None and not oom_all:
                # Micro-batches follow the frame's shed and OOM
                # records; the level adapts after the whole frame.
                self._settle(
                    report,
                    self._serve_frame_batched(
                        sorted(admitted_idx), frame, t_s, clock_mhz
                    ),
                )

            if BUS.active:
                fired = self.injector.log.events[events_before:]
                note = ", ".join(
                    sorted({e.kind.value for e in fired})
                )
                stolen = self.injector.ram_stolen_mb(self.device)
                active = len(
                    [r for r in report.records
                     if r.frame == frame and not r.dropped]
                )
                sample = TegrastatsSample(
                    timestamp_s=t_s,
                    ram_used_mb=int(
                        1536 + stolen + self._per_stream_mb * active
                    ),
                    ram_total_mb=self.device.ram_gb * 1024,
                    gpu_util_pct=80.0 if active else 5.0,
                    gpu_freq_mhz=clock_mhz,
                    cpu_util_pct=min(95.0, 10.0 * active),
                    note=note,
                )
                BUS.emit(
                    SpanKind.SAMPLE,
                    "tegrastats",
                    ram_used_mb=sample.ram_used_mb,
                    ram_total_mb=sample.ram_total_mb,
                    gpu_util_pct=sample.gpu_util_pct,
                    gpu_freq_mhz=sample.gpu_freq_mhz,
                    cpu_util_pct=sample.cpu_util_pct,
                    note=note,
                    _sample=sample,
                )
        return report


# ----------------------------------------------------------------------
# plan audit + rebuild
# ----------------------------------------------------------------------
def _sidecar_cache_path(plan_path) -> Optional["Path"]:
    """The shipped timing cache next to a plan, if one exists.

    Conventions checked, in order: ``<plan>.timing`` (plan filename
    plus suffix) and ``<stem>.timing`` (suffix swapped).
    """
    from pathlib import Path

    plan = Path(plan_path)
    for candidate in (
        Path(str(plan) + ".timing"),
        plan.with_suffix(".timing"),
    ):
        if candidate.exists():
            return candidate
    return None


def load_or_rebuild(
    plan_path,
    network,
    device: DeviceSpec,
    builder_config=None,
    injector: Optional[FaultInjector] = None,
    store=None,
    provider=None,
) -> Tuple[Engine, bool]:
    """Load a ``.plan`` that passes its integrity audit, else rebuild.

    Returns ``(engine, rebuilt)``.  The audit is the full
    :func:`repro.lint.lint_plan` pass over the same read of the file
    that yields the engine (:func:`repro.lint.lint_and_load_plan`);
    any error-level diagnostic (a
    corrupt archive, a tampered document, a broken embedded graph)
    triggers a rebuild from ``network`` using ``builder_config`` —
    which should carry a ``timing_cache``/``timing_cache_path`` so the
    rebuild reproduces the shipped engine's tactic bindings
    (Finding 2 mitigation).

    When ``builder_config`` is None the rebuild does **not** run a
    fresh cold auction with arbitrary tactics: it first routes through
    ``store`` (an :class:`~repro.engine.store.EngineStore`, whose
    sidecar timing cache survives plan corruption), then looks for a
    sidecar cache shipped next to the plan (``<plan>.timing``), and
    only warns and rebuilds truly cold when neither exists — the
    regression the original fallback silently caused.

    ``provider`` selects the execution provider(s) for any rebuild
    (``"trt"``, ``"cuda"``, ``"cpu"``, ``"auto"``, or a priority list
    like ``"cuda,trt"``); it does not alter a plan that loads clean.
    """
    import dataclasses
    import warnings

    from repro.engine.builder import BuilderConfig, EngineBuilder
    from repro.lint import lint_and_load_plan

    report, engine = lint_and_load_plan(plan_path)
    if engine is not None:
        return engine, False
    if injector is not None:
        first = report.errors[0] if report.errors else None
        injector.emit(
            FaultKind.PLAN_CORRUPTION,
            severity=1,
            action="rebuild",
            plan=str(plan_path),
            diagnostic=(first.message if first else "audit failed"),
        )
    if store is not None:
        engine, _ = store.get_or_build(
            network,
            device,
            builder_config or BuilderConfig(seed=0),
            provider=provider,
        )
        return engine, True
    config = builder_config
    if config is None:
        sidecar = _sidecar_cache_path(plan_path)
        if sidecar is not None:
            config = BuilderConfig(
                seed=0, timing_cache_path=str(sidecar)
            )
        else:
            warnings.warn(
                f"rebuilding {plan_path} cold: no EngineStore and no "
                f"sidecar timing cache found — the rebuilt engine's "
                f"tactic bindings may differ from the shipped plan's "
                f"(paper Finding 2)",
                RuntimeWarning,
                stacklevel=2,
            )
            config = BuilderConfig(seed=0)
    if provider is not None:
        config = dataclasses.replace(config, provider=provider)
    engine = EngineBuilder(device, config).build(network)
    return engine, True


# ----------------------------------------------------------------------
# supervised-vs-unsupervised comparison
# ----------------------------------------------------------------------
@dataclass
class ResilienceComparison:
    """Paired SLO reports over the same fault plan and workload."""

    supervised: ServiceReport
    unsupervised: ServiceReport
    plan_name: str

    @property
    def hit_rate_gain(self) -> float:
        """Supervised / unsupervised deadline-hit ratio (inf when the
        baseline served nothing in time)."""
        if self.unsupervised.deadline_hit_rate == 0.0:
            return float("inf") if (
                self.supervised.deadline_hit_rate > 0
            ) else 1.0
        return (
            self.supervised.deadline_hit_rate
            / self.unsupervised.deadline_hit_rate
        )

    def to_dict(self) -> Dict[str, Any]:
        """Stable-schema snapshot (``trtsim.resilience_comparison/1``).

        ``hit_rate_gain`` is ``None`` (not ``inf``) when the baseline
        served nothing in time, so the document is strict-JSON safe.
        """
        gain = self.hit_rate_gain
        return {
            "schema": "trtsim.resilience_comparison/1",
            "plan": self.plan_name,
            "hit_rate_gain": None if gain == float("inf") else gain,
            "supervised": self.supervised.to_dict(),
            "unsupervised": self.unsupervised.to_dict(),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def slo_table(self) -> str:
        rows = [
            ("deadline-hit rate",
             f"{100 * self.supervised.deadline_hit_rate:.1f}%",
             f"{100 * self.unsupervised.deadline_hit_rate:.1f}%"),
            ("dropped frames",
             str(self.supervised.dropped_frames),
             str(self.unsupervised.dropped_frames)),
            ("failed requests",
             str(self.supervised.failures),
             str(self.unsupervised.failures)),
            ("retries",
             str(self.supervised.total_retries),
             str(self.unsupervised.total_retries)),
            ("fallback occupancy",
             f"{100 * self.supervised.fallback_occupancy:.1f}%",
             f"{100 * self.unsupervised.fallback_occupancy:.1f}%"),
            ("mean latency",
             f"{self.supervised.mean_latency_ms:.2f} ms",
             f"{self.unsupervised.mean_latency_ms:.2f} ms"),
        ]
        lines = [
            f"fault plan: {self.plan_name} — "
            f"{len(self.supervised.records)} requests each",
            f"{'metric':<20}{'supervised':>14}{'unsupervised':>14}",
        ]
        lines += [f"{m:<20}{s:>14}{u:>14}" for m, s, u in rows]
        gain = self.hit_rate_gain
        gain_text = "inf" if gain == float("inf") else f"{gain:.2f}x"
        lines.append(f"hit-rate gain: {gain_text}")
        return "\n".join(lines)


def run_fault_comparison(
    engine: Engine,
    plan: FaultPlan,
    streams: Sequence[StreamSpec] = (StreamSpec("stream0"),),
    fallbacks: Sequence[Engine] = (),
    config: Optional[SupervisorConfig] = None,
    frames: int = 40,
    seed: int = 0,
    device: Optional[DeviceSpec] = None,
) -> ResilienceComparison:
    """Run the same workload supervised and unsupervised against two
    fresh injectors of the same plan, and pair the SLO reports."""
    reports = {}
    for supervised in (True, False):
        supervisor = InferenceSupervisor(
            engine,
            fallbacks=fallbacks if supervised else (),
            streams=streams,
            config=config,
            injector=FaultInjector(plan),
            device=device,
            supervised=supervised,
            seed=seed,
        )
        reports[supervised] = supervisor.serve(frames)
    return ResilienceComparison(
        supervised=reports[True],
        unsupervised=reports[False],
        plan_name=plan.name,
    )
