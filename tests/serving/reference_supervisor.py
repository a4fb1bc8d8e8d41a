"""The supervisor's two request paths, kept as the oracle.

Before the supervisor had one request path it had two copies of its
attempt -> watchdog -> retry -> backoff loop: a per-request one
(``_attempt`` / ``_serve_request``) used without batching, and a
micro-batched one (``_attempt_batch`` / ``_serve_batch``) used with
batching.  :class:`ReferenceSupervisor` is a subclass of the live
:class:`~repro.serving.supervisor.InferenceSupervisor` that serves
through those two copies, exactly as they were, so a reference run uses
the old code for everything that moved:

* without batching each admitted stream runs the per-request loop,
  whose watchdog action names the stream;
* with batching each frame's admitted streams coalesce and run the
  batched loop, whose watchdog action names the batch size.

Admission control, the fallback ladder, inputs, digests and the request
spans are shared with the live code.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.events import FaultError, FaultKind
from repro.profiling.tegrastats import TegrastatsSample
from repro.serving.batching import BatchRequest, coalesce
from repro.serving.supervisor import (
    InferenceSupervisor,
    RequestRecord,
    ServiceReport,
)
from repro.telemetry.bus import BUS, SpanKind


class ReferenceSupervisor(InferenceSupervisor):
    """:class:`InferenceSupervisor` on the per-request and the batched
    request loops it used to carry side by side."""

    # ------------------------------------------------------------------
    # request execution
    # ------------------------------------------------------------------
    def _attempt(
        self,
        level: int,
        stream_idx: int,
        frame: int,
        attempt: int,
        clock_mhz: float,
    ) -> Tuple[Optional[Dict], float, str]:
        """One execution attempt: (outputs|None, latency_ms, fault)."""
        context = self._contexts[level]
        rng = np.random.default_rng(
            (self.seed, stream_idx, frame, attempt)
        )
        fault = ""
        outputs: Optional[Dict] = None
        try:
            result = context.execute(
                **self._input_for(level, stream_idx, frame)
            )
            outputs = result.outputs
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
        )
        return outputs, timing.total_ms, fault

    def _serve_request(
        self, stream_idx: int, frame: int, t_s: float, clock_mhz: float
    ) -> RequestRecord:
        cfg = self.config
        stream = self.streams[stream_idx]
        level = self._level if self.supervised else 0
        total_ms = 0.0
        attempts = 0
        last_fault = ""
        outputs: Optional[Dict] = None
        max_attempts = 1 + (cfg.max_retries if self.supervised else 0)
        while attempts < max_attempts:
            attempts += 1
            outputs, attempt_ms, fault = self._attempt(
                level, stream_idx, frame, attempts, clock_mhz
            )
            if self.supervised and attempt_ms > cfg.watchdog_ms:
                # Watchdog fired: the attempt is cut off at its budget
                # and treated as a (probably hung) failure.
                attempt_ms = cfg.watchdog_ms
                fault = fault or FaultKind.KERNEL_HANG.value
                outputs = None
                self.actions.append(
                    (t_s,
                     f"watchdog cut attempt {attempts} of "
                     f"{stream.name!r}#{frame} at {cfg.watchdog_ms:.1f} ms")
                )
            total_ms += attempt_ms
            if fault:
                last_fault = fault
            if outputs is not None:
                break
            if self.supervised and attempts < max_attempts:
                backoff_rng = np.random.default_rng(
                    (self.seed, 23, stream_idx, frame, attempts)
                )
                total_ms += cfg.backoff_ms(attempts, backoff_rng)
        ok = outputs is not None
        return RequestRecord(
            frame=frame,
            stream=stream.name,
            t_s=t_s,
            ok=ok,
            dropped=False,
            deadline_met=ok and total_ms <= cfg.deadline_ms,
            latency_ms=total_ms,
            attempts=attempts,
            level=level,
            fault=last_fault,
            output_digest=self._digest(outputs) if ok else "",
        )

    # ------------------------------------------------------------------
    # micro-batched request execution
    # ------------------------------------------------------------------
    def _attempt_batch(
        self,
        level: int,
        member_idx: Sequence[int],
        frame: int,
        attempt: int,
        clock_mhz: float,
    ) -> Tuple[Optional[Dict], float, str]:
        """One batched attempt over ``member_idx`` streams:
        (stacked outputs|None, latency_ms, fault)."""
        context = self._contexts[level]
        engine = self.engines[level]
        stacked = np.concatenate(
            [
                self._input_for(level, i, frame)[engine.input_name]
                for i in member_idx
            ],
            axis=0,
        )
        # Singleton batches reuse the unbatched rng key so a
        # max_batch=1 queue is bit-identical to per-request serving.
        if len(member_idx) == 1:
            rng = np.random.default_rng(
                (self.seed, member_idx[0], frame, attempt)
            )
        else:
            rng = np.random.default_rng(
                (self.seed, 29, frame, *member_idx, attempt)
            )
        fault = ""
        outputs: Optional[Dict] = None
        try:
            result = context.execute(**{engine.input_name: stacked})
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

    def _serve_batch(
        self,
        member_idx: Sequence[int],
        frame: int,
        t_s: float,
        clock_mhz: float,
        wait_ms: float,
    ) -> List[RequestRecord]:
        """Serve one micro-batch; every member shares the batch's fate.

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
            outputs, attempt_ms, fault = self._attempt_batch(
                level, member_idx, frame, attempts, clock_mhz
            )
            if self.supervised and attempt_ms > cfg.watchdog_ms:
                attempt_ms = cfg.watchdog_ms
                fault = fault or FaultKind.KERNEL_HANG.value
                outputs = None
                self.actions.append(
                    (t_s,
                     f"watchdog cut attempt {attempts} of batch "
                     f"x{len(member_idx)}#{frame} at "
                     f"{cfg.watchdog_ms:.1f} ms")
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
        """Coalesce one frame's admitted requests into micro-batches
        that serialize on the single GPU in closure order."""
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
            batch_records = self._serve_batch(
                member_idx, frame, t_s, clock_mhz, wait_ms=start_ms
            )
            records.extend(batch_records)
            # Every member reports the same total (wait + execution);
            # the GPU is busy for the execution part only.
            busy_ms = batch_records[0].latency_ms
        return records

    # ------------------------------------------------------------------
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
                if self.batching is not None:
                    continue  # served below as micro-batches
                record = self._serve_request(
                    stream_idx, frame, t_s, clock_mhz
                )
                self._record(report, record)
                if self.supervised:
                    self._adapt_level(record)

            if self.batching is not None and not oom_all:
                served_idx = sorted(
                    i for i in range(len(self.streams))
                    if i in admitted_idx
                )
                for record in self._serve_frame_batched(
                    served_idx, frame, t_s, clock_mhz
                ):
                    self._record(report, record)
                    if self.supervised:
                        self._adapt_level(record)

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
