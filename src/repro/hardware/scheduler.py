"""Multi-stream concurrency simulation (paper Section IV-B, Figs 3/4).

Models the paper's concurrency setup: one CUDA context, N streams, each
stream running the same engine on its own camera feed.  Steady-state
throughput is limited by whichever saturates first:

* **SM capacity** — aggregate kernel compute demand across streams;
* **DRAM bandwidth** — aggregate activation + weight traffic (Eq. 1 of
  the paper: the supportable thread count is bounded by memory
  bandwidth over per-thread bandwidth demand);
* **RAM capacity** — each stream needs its own activation buffers.

The scheduler reports per-thread FPS and GPU utilization for each
thread count, reproducing the saturation shape of Figures 3 and 4, and
feeds :class:`repro.profiling.tegrastats.Tegrastats` samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, TYPE_CHECKING

from repro.hardware.memory import (
    activation_itemsize,
    per_stream_working_set_bytes,
)
from repro.hardware.power import PowerModel, PowerSample
from repro.hardware.specs import DeviceSpec
from repro.profiling.tegrastats import Tegrastats, TegrastatsSample
from repro.telemetry.bus import BUS, SpanKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.engine import Engine

#: GPU utilization never reaches 100%: scheduling gaps between kernels
#: and memcpy serialization leave ~15% idle even at saturation, matching
#: the 82-86% plateaus in the paper's Figures 3 and 4.
UTILIZATION_CEILING = 0.862

#: Fraction of board RAM available to inference work (OS + desktop +
#: CUDA context overhead excluded).
USABLE_RAM_FRACTION = 0.70

#: Host CPU time to submit one kernel launch into a stream (us, on the
#: NX's 6-core Carmel; scales inversely with core count).  With many
#: streams the ARM cores become the submission bottleneck for
#: many-kernel engines — why a heavier model saturates at *fewer*
#: threads (paper Figs 3 vs 4: 28/36 threads for Tiny-YOLOv3 but only
#: 16/24 for GoogLeNet).
KERNEL_SUBMIT_US = 0.30


@dataclass(frozen=True)
class ConcurrencyPoint:
    """Steady-state statistics at one thread count.

    FPS figures count *frames* (samples), so a stream running
    micro-batches of size B at rate R inferences/s contributes B*R.
    """

    threads: int
    fps_per_thread: float
    aggregate_fps: float
    gpu_utilization_pct: float
    ram_used_mb: int
    bandwidth_limited: bool
    power: "PowerSample | None" = None
    batch_size: int = 1

    @property
    def fps_per_watt(self) -> float:
        if self.power is None:
            return 0.0
        return self.aggregate_fps / self.power.total_w


@dataclass
class ConcurrencyResult:
    """Sweep over thread counts for one engine on one device."""

    device_name: str
    engine_name: str
    clock_mhz: float
    points: List[ConcurrencyPoint]
    max_threads: int
    batch_size: int = 1

    def point(self, threads: int) -> ConcurrencyPoint:
        for p in self.points:
            if p.threads == threads:
                return p
        raise KeyError(f"no sweep point at {threads} threads")


class StreamScheduler:
    """Simulates N concurrent inference streams of one engine.

    ``faults`` optionally injects resource pressure: an object with
    ``ram_stolen_mb(device) -> float`` and ``bandwidth_scale() ->
    float`` (the protocol :class:`repro.faults.FaultInjector`
    implements).  Stolen RAM and degraded DRAM bandwidth shrink the
    supportable stream count exactly as Eq. 1 predicts.
    """

    def __init__(
        self,
        engine: "Engine",
        device: Optional[DeviceSpec] = None,
        faults: Optional[object] = None,
        resident_mb: float = 0.0,
    ):
        self.engine = engine
        self.device = device or engine.device
        self.faults = faults
        #: RAM (MB) already committed to co-resident engines (warm
        #: EnginePool tenants, fallback ladders).  Deducted from the
        #: usable-RAM stream budget so pool residency and per-stream
        #: activations cannot jointly over-commit the board.
        self.resident_mb = float(resident_mb)
        # One context for the whole scheduler: its skeleton cache is
        # keyed by (clock, batch), so concurrency sweeps re-time the
        # same engine without rebuilding the deterministic timeline.
        self._context: Optional[object] = None

    # ------------------------------------------------------------------
    def _ram_stolen_mb(self) -> float:
        if self.faults is None:
            return 0.0
        return float(self.faults.ram_stolen_mb(self.device))

    def _bandwidth_scale(self) -> float:
        if self.faults is None:
            return 1.0
        return float(self.faults.bandwidth_scale())

    def _activation_itemsize(self) -> int:
        """Bytes per activation element, from the engine's precision
        mode (see :func:`repro.hardware.memory.activation_itemsize`)."""
        return activation_itemsize(self.engine.precision_mode.value)

    def per_stream_memory_mb(self, batch_size: int = 1) -> float:
        """Activation + engine working set of one stream (MB); the
        admission-control unit the serving supervisor budgets with."""
        working = per_stream_working_set_bytes(
            self.engine.graph, self._activation_itemsize(), batch_size
        )
        return working / (1024.0 * 1024.0)

    def _single_stream_compute_us(
        self, clock_mhz: float, batch_size: int = 1
    ) -> float:
        """Kernel-only latency of one (micro-batched) inference at full
        SM share."""
        if self._context is None:
            self._context = self.engine.create_execution_context(
                self.device
            )
        context = self._context
        timing = context.time_inference(
            clock_mhz=clock_mhz,
            include_engine_upload=False,  # weights stay resident
            jitter=0.0,
            batch_size=batch_size,
        )
        return timing.kernel_us

    # ------------------------------------------------------------------
    def max_supported_threads(
        self,
        clock_mhz: Optional[float] = None,
        batch_size: int = 1,
    ) -> int:
        """The thread count at which the board saturates (the paper's
        'maximum number of threads that are supported').

        Returns **0** when not even one stream fits — e.g. a fault
        campaign has stolen enough RAM that a single stream's working
        set no longer fits the usable budget.  Callers (``sweep``, the
        serving supervisor's admission control) must treat 0 as "admit
        nothing", not as "one stream is fine".
        """
        clock = clock_mhz or self.device.max_gpu_clock_mhz
        latency_us = self._single_stream_compute_us(clock, batch_size)
        traffic = float(self.engine.workload_bytes(batch_size))
        # Eq. 1: N = O(Fmem * Bwid / Bth). Per-thread demand at full
        # speed is traffic / latency; the usable share of peak DRAM
        # bandwidth caps the total.  An engine whose bindings move no
        # DRAM bytes (fully-fused residency, degenerate graphs) demands
        # no bandwidth: the bound is unlimited, not a division by zero
        # — RAM and host-submission bounds still apply below.
        per_thread_bw = traffic / latency_us * 1e6  # bytes/s
        usable_bw = (
            self.device.mem_bandwidth_gbps * 1e9 * UTILIZATION_CEILING
            * self._bandwidth_scale()
        )
        if per_thread_bw > 0:
            n_bw = int(usable_bw / per_thread_bw)
        else:
            n_bw = 2 ** 31
        ram_mb = max(
            0.0,
            self.device.ram_gb * 1024 * USABLE_RAM_FRACTION
            - self._ram_stolen_mb()
            - self.resident_mb,
        )
        n_ram = int(ram_mb / self.per_stream_memory_mb(batch_size))
        # Host submission bound: each stream issues num_kernels launches
        # per inference; the ARM cores sustain a finite submit rate.
        # Batching amortizes submissions: one batched inference still
        # issues num_kernels launches but covers batch_size frames.
        submit_us = KERNEL_SUBMIT_US * 6.0 / self.device.cpu_cores
        n_host = int(latency_us / (self.engine.num_kernels * submit_us))
        return max(0, min(n_bw, n_ram, n_host))

    def sweep(
        self,
        max_threads: Optional[int] = None,
        clock_mhz: Optional[float] = None,
        step: int = 4,
        tegrastats: Optional[Tegrastats] = None,
        batch_size: int = 1,
    ) -> ConcurrencyResult:
        """FPS / GPU-utilization sweep over thread counts.

        ``batch_size`` runs every stream in micro-batches of that size
        (the streams x batch grid of the batching extension); all FPS
        figures stay in frames/sec.  When no stream fits (RAM
        exhaustion under faults) the result has zero points and
        ``max_threads == 0``.
        """
        clock = clock_mhz or self.device.max_gpu_clock_mhz
        supported = self.max_supported_threads(clock, batch_size)
        if supported == 0:
            return ConcurrencyResult(
                device_name=self.device.name,
                engine_name=self.engine.name,
                clock_mhz=clock,
                points=[],
                max_threads=0,
                batch_size=batch_size,
            )
        limit = max_threads or supported
        limit = min(limit, supported)
        latency_us = self._single_stream_compute_us(clock, batch_size)
        traffic = float(self.engine.workload_bytes(batch_size))
        usable_bw = (
            self.device.mem_bandwidth_gbps * 1e9 * UTILIZATION_CEILING
            * self._bandwidth_scale()
        )
        # Per *frame* the batched engine moves traffic/batch bytes, so
        # the Eq. 1 frame-rate cap rises sub-linearly with batch until
        # activation traffic dominates the amortized weights.  Zero
        # traffic demands no bandwidth — the cap is unbounded.
        if traffic > 0:
            fps_bw_cap = usable_bw / (traffic / batch_size)
        else:
            fps_bw_cap = float("inf")
        # Aggregate throughput also stops growing at the binding cap —
        # host submission rate or DRAM bandwidth, whichever is lower.
        fps_host_cap = supported * batch_size * 1e6 / latency_us
        fps_cap = min(fps_bw_cap, fps_host_cap)
        per_stream_mb = self.per_stream_memory_mb(batch_size)

        counts = [1] + list(range(step, limit + 1, step))
        if counts[-1] != limit:
            counts.append(limit)
        points = []
        for n in counts:
            # Demand: n streams each want batch/latency frames/sec.
            demand_fps = n * batch_size * 1e6 / latency_us
            agg = min(demand_fps, fps_cap)
            # Kernel-gap inefficiency leaves a few percent on the table
            # even pre-saturation; saturation approaches the ceiling.
            utilization = UTILIZATION_CEILING * (
                demand_fps / (demand_fps + 0.35 * fps_cap)
            ) * (1.35)
            utilization = min(utilization, UTILIZATION_CEILING)
            gpu_pct = utilization * 100.0
            stolen_mb = self._ram_stolen_mb()
            ram_used = int(
                per_stream_mb * n + 1536 + stolen_mb
            )  # plus OS/desktop baseline and injected pressure
            mem_util = min(1.0, agg * (traffic / batch_size) / (
                self.device.mem_bandwidth_gbps * 1e9))
            power = PowerModel(self.device).sample(
                gpu_utilization=utilization,
                clock_mhz=clock,
                mem_bw_utilization=mem_util,
                cpu_utilization=min(0.95, 0.08 * n),
            )
            point = ConcurrencyPoint(
                threads=n,
                fps_per_thread=agg / n,
                aggregate_fps=agg,
                gpu_utilization_pct=gpu_pct,
                ram_used_mb=ram_used,
                bandwidth_limited=demand_fps > fps_cap,
                power=power,
                batch_size=batch_size,
            )
            points.append(point)
            if tegrastats is not None or BUS.active:
                note = (
                    f"fault: {stolen_mb:.0f}MB RAM stolen"
                    if stolen_mb > 0
                    else ""
                )
                sample = TegrastatsSample(
                    timestamp_s=float(n),
                    ram_used_mb=ram_used,
                    ram_total_mb=self.device.ram_gb * 1024,
                    gpu_util_pct=gpu_pct,
                    gpu_freq_mhz=clock,
                    cpu_util_pct=min(95.0, 8.0 * n),
                    note=note,
                )
                if tegrastats is not None:
                    tegrastats.record(sample)
                if BUS.active:
                    BUS.emit(
                        SpanKind.SAMPLE,
                        "tegrastats",
                        ram_used_mb=sample.ram_used_mb,
                        ram_total_mb=sample.ram_total_mb,
                        gpu_util_pct=sample.gpu_util_pct,
                        gpu_freq_mhz=sample.gpu_freq_mhz,
                        cpu_util_pct=sample.cpu_util_pct,
                        threads=n,
                        note=note,
                        _sample=sample,
                    )
        return ConcurrencyResult(
            device_name=self.device.name,
            engine_name=self.engine.name,
            clock_mhz=clock,
            points=points,
            max_threads=supported,
            batch_size=batch_size,
        )
