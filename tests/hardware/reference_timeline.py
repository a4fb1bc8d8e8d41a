"""Reference timeline: the event-by-event simulator that the columnar
:func:`repro.hardware.gpu.simulate_inference` replaced, and the scalar
kernel cost formula that the cost table replaced, kept as the oracle.

:func:`kernel_cost` is the scalar cost model as it last ran in ``src/``
(``_compute_kernel_cost`` with its burst penalty and per-SM FLOP
rate), without its memo, and :func:`for_batch` is the batch rule
``LayerWorkload.for_batch`` applied before pricing.
:func:`timeline_skeleton` prices every kernel with them one at a time
and branches per provider and per multi-kernel binding.
:func:`simulate_inference` applies jitter, profiler overhead and fault
factors one event at a time, with separate plain, partitioned and
hooked paths, and appends frozen :class:`~repro.hardware.gpu.KernelEvent`
and :class:`~repro.hardware.gpu.MemcpyEvent` records.

Three things differ from the code as it last ran in ``src/``:

* the timeline-skeleton cache is gone (it never changed a byte, and
  the columnar simulator keeps it);
* the ``hardware_hook`` calls drop their unused ``start_us`` argument,
  as the protocol now does;
* :class:`ReferenceTiming` sums its totals with an explicit left-to-
  right loop, which is what builtin ``sum()`` did before Python 3.12,
  so the oracle means the same on every interpreter.

``tests/hardware/test_timeline_oracle.py`` and
``python -m tests.hardware.timeline_oracle`` compare the two, and
``tests/engine/reference_builder.py`` times tactic auctions with
:func:`kernel_cost`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.ir import DataType
from repro.hardware.gpu import KernelEvent, MemcpyEvent
from repro.hardware.memory import MemcpyModel
from repro.hardware.specs import DeviceSpec
from repro.hardware.workload import LayerWorkload


# ----------------------------------------------------------------------
# The scalar kernel cost formula
# ----------------------------------------------------------------------
def _per_sm_flops_per_clock(device: DeviceSpec, kernel) -> float:
    """Peak FLOPs issued per SM per clock for the kernel's math path."""
    if kernel.uses_tensor_cores:
        per_tc = 256.0 if kernel.precision is DataType.INT8 else 128.0
        return device.tensor_cores_per_sm * per_tc
    # CUDA cores: FMA = 2 FLOP/clock; packed fp16x2 doubles it.
    scale = 2.0 if kernel.precision is DataType.FP16 else 1.0
    return device.cores_per_sm * 2.0 * scale


def _burst_penalty(dev: DeviceSpec, kernel) -> float:
    granularity = getattr(kernel, "access_granularity_bytes", 64)
    ratio = dev.min_burst_bytes / granularity
    return ratio if ratio >= 4.0 else 1.0


@dataclass(frozen=True)
class ReferenceCost:
    """Cost breakdown of one kernel invocation (microseconds)."""

    launch_us: float
    compute_us: float
    bandwidth_us: float
    latency_us: float

    @property
    def total_us(self) -> float:
        return (
            self.launch_us
            + max(self.compute_us, self.bandwidth_us)
            + self.latency_us
        )


def kernel_cost(
    dev: DeviceSpec,
    kernel,
    workload: LayerWorkload,
    clock_mhz: float,
    sm_fraction: float = 1.0,
) -> ReferenceCost:
    """Cost of running ``kernel`` over ``workload`` at ``clock_mhz``."""
    effective_sms = max(1.0, dev.sms * sm_fraction)
    clock_hz = clock_mhz * 1e6
    burst_penalty = _burst_penalty(dev, kernel)

    if workload.gemm_k > 0:
        # GEMM-shaped work: wave-quantized tile math.
        blocks = (
            math.ceil(workload.gemm_m / kernel.tile_m)
            * math.ceil(workload.gemm_n / kernel.tile_n)
            * kernel.split_k
        )
        concurrent = max(1, int(effective_sms) * kernel.blocks_per_sm)
        waves = math.ceil(blocks / concurrent)
        flops_per_block = (
            2.0 * kernel.tile_m * kernel.tile_n
            * workload.gemm_k / kernel.split_k
        )
        per_block_rate = (
            _per_sm_flops_per_clock(dev, kernel)
            * clock_hz / kernel.blocks_per_sm
        )
        compute_us = waves * flops_per_block / per_block_rate * 1e6
        strides = math.ceil(
            workload.gemm_k / kernel.split_k / kernel.prefetch_depth
        )
        latency_us = (
            waves * strides * dev.dram_latency_ns * burst_penalty / 1e3
        )
    else:
        # Pointwise-ish work: throughput-limited element math.
        rate = (
            _per_sm_flops_per_clock(dev, kernel)
            * effective_sms * clock_hz
        )
        compute_us = workload.flops / rate * 1e6
        latency_us = 4.0 * dev.dram_latency_ns * burst_penalty / 1e3

    bw_gbps = dev.mem_bandwidth_gbps * kernel.bw_eff * sm_fraction
    bandwidth_us = workload.total_bytes / (bw_gbps * 1e3)

    return ReferenceCost(
        launch_us=dev.kernel_launch_overhead_us,
        compute_us=compute_us,
        bandwidth_us=bandwidth_us,
        latency_us=latency_us,
    )


def for_batch(workload: LayerWorkload, batch_size: int) -> LayerWorkload:
    """The same layer's workload when ``batch_size`` samples run in one
    invocation: FLOPs, activation bytes, output elements and the GEMM
    N dimension scale; weight bytes and GEMM M and K do not.  Batch 1
    returns ``workload`` itself."""
    if batch_size == 1:
        return workload
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    return LayerWorkload(
        flops=workload.flops * batch_size,
        bytes_in=workload.bytes_in * batch_size,
        bytes_w=workload.bytes_w,
        bytes_out=workload.bytes_out * batch_size,
        gemm_m=workload.gemm_m,
        gemm_n=workload.gemm_n * batch_size,
        gemm_k=workload.gemm_k,
        elements_out=workload.elements_out * batch_size,
        category=workload.category,
    )


def left_to_right_sum(values) -> float:
    """``((0 + v0) + v1) + ...``: builtin ``sum()`` before Python 3.12."""
    total = 0
    for value in values:
        total = total + value
    return total


_BUILTIN_SUM = sum


def neumaier_sum(iterable, start=0):
    """Builtin ``sum()`` as Python 3.12 computes it: compensated over
    floats, exact over everything else.  Tests patch it in for
    ``builtins.sum`` to show a result does not depend on the
    interpreter."""
    items = list(iterable)
    if not any(isinstance(x, float) for x in items):
        return _BUILTIN_SUM(items, start)
    total, compensation = float(start), 0.0
    for x in items:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation


@dataclass
class ReferenceTiming:
    """The event-list timeline container the columnar one replaced."""

    device_name: str
    clock_mhz: float
    batch_size: int = 1
    kernel_events: List[KernelEvent] = field(default_factory=list)
    memcpy_events: List[MemcpyEvent] = field(default_factory=list)

    @property
    def kernel_us(self) -> float:
        return left_to_right_sum(e.duration_us for e in self.kernel_events)

    @property
    def memcpy_us(self) -> float:
        return left_to_right_sum(e.duration_us for e in self.memcpy_events)

    @property
    def total_us(self) -> float:
        return self.kernel_us + self.memcpy_us


#: (upload (bytes, calls, us) or None, input (bytes, us) or None,
#: per-event (name, layer_name, base_us, transfer_bytes), the base
#: durations again as a float64 vector).
Skeleton = Tuple[
    Optional[Tuple[int, int, float]],
    Optional[Tuple[int, float]],
    Tuple[Tuple[str, str, float, int], ...],
    np.ndarray,
]


def timeline_skeleton(
    bindings: Sequence,
    device: DeviceSpec,
    clock_mhz: float,
    weight_chunks: Sequence[int],
    input_bytes: int,
    include_engine_upload: bool,
    sm_fraction: float,
    batch_size: int,
    mem_contention: float = 1.0,
) -> Skeleton:
    """The noise-free portion of the timeline, one kernel at a time."""
    if mem_contention < 1.0:
        raise ValueError(
            f"mem_contention must be >= 1.0, got {mem_contention}"
        )
    memcpy = MemcpyModel(device)
    upload: Optional[Tuple[int, int, float]] = None
    if include_engine_upload and weight_chunks:
        up = memcpy.transfer(list(weight_chunks))
        upload = (up.bytes, up.calls, up.total_us * mem_contention)
    inp: Optional[Tuple[int, float]] = None
    if input_bytes:
        single = memcpy.single(
            input_bytes if batch_size == 1 else input_bytes * batch_size
        )
        inp = (single.bytes, single.total_us * mem_contention)
    kernels: List[Tuple[str, str, float, int]] = []
    for binding in bindings:
        workload = for_batch(binding.workload, batch_size)
        spec = getattr(binding, "transfer", None)
        if spec is not None:
            xfer = memcpy.single(workload.bytes_out)
            kernels.append(
                (
                    f"[CUDA memcpy DtoD] {binding.layer_name}",
                    binding.layer_name,
                    xfer.total_us * mem_contention,
                    xfer.bytes,
                )
            )
            continue
        n_kernels = len(binding.kernels)
        params = None
        provider = getattr(binding, "provider", "trt")
        if provider != "trt":
            from repro.runtime.providers import provider_cost_params

            params = provider_cost_params(provider)
        for kernel in binding.kernels:
            cost = kernel_cost(
                device, kernel, workload, clock_mhz, sm_fraction
            )
            bw_us = cost.bandwidth_us * mem_contention
            if params is not None:
                work = max(
                    cost.compute_us / params.compute_scale,
                    bw_us / params.bandwidth_scale,
                )
                if n_kernels > 1:
                    work /= n_kernels
                base = (
                    cost.launch_us * params.launch_scale
                    + work
                    + cost.latency_us * params.latency_scale
                )
            elif n_kernels > 1:
                base = (
                    cost.launch_us
                    + max(cost.compute_us, bw_us) / n_kernels
                    + cost.latency_us
                )
            else:
                base = (
                    cost.launch_us
                    + max(cost.compute_us, bw_us)
                    + cost.latency_us
                )
            kernels.append((kernel.name, binding.layer_name, base, 0))
    bases = np.array([k[2] for k in kernels], dtype=np.float64)
    bases.setflags(write=False)
    return upload, inp, tuple(kernels), bases


def simulate_inference(
    bindings: Sequence,
    device: DeviceSpec,
    clock_mhz: float,
    weight_chunks: Sequence[int],
    input_bytes: int,
    include_engine_upload: bool = True,
    rng: Optional[np.random.Generator] = None,
    jitter: float = 0.05,
    sm_fraction: float = 1.0,
    profiler: Optional[object] = None,
    hardware_hook: Optional[object] = None,
    batch_size: int = 1,
    mem_contention: float = 1.0,
) -> ReferenceTiming:
    """Simulate one inference event by event.  ``profiler`` only
    perturbs the durations here; nothing is recorded."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    timing = ReferenceTiming(
        device_name=device.name, clock_mhz=clock_mhz, batch_size=batch_size
    )
    cursor = 0.0
    upload, inp, kernel_bases, base_vec = timeline_skeleton(
        bindings,
        device,
        clock_mhz,
        weight_chunks,
        input_bytes,
        include_engine_upload,
        sm_fraction,
        batch_size,
        mem_contention,
    )
    hook = hardware_hook

    def noisy(value: float) -> float:
        if rng is None or jitter <= 0:
            return value
        return float(value * max(0.5, 1.0 + jitter * rng.standard_normal()))

    overhead = getattr(profiler, "kernel_overhead_factor", 1.0)
    memcpy_overhead = getattr(profiler, "memcpy_overhead_factor", 1.0)

    if upload is not None:
        up_bytes, up_calls, up_us = upload
        dur = noisy(up_us) * memcpy_overhead
        if hook is not None:
            dur *= hook.memcpy_factor("[CUDA memcpy HtoD] engine")
        timing.memcpy_events.append(
            MemcpyEvent(
                label="[CUDA memcpy HtoD] engine",
                bytes=up_bytes,
                calls=up_calls,
                start_us=cursor,
                duration_us=dur,
            )
        )
        cursor += dur

    if inp is not None:
        in_bytes, in_us = inp
        dur = noisy(in_us) * memcpy_overhead
        if hook is not None:
            dur *= hook.memcpy_factor("[CUDA memcpy HtoD] input")
        timing.memcpy_events.append(
            MemcpyEvent(
                label="[CUDA memcpy HtoD] input",
                bytes=in_bytes,
                calls=1,
                start_us=cursor,
                duration_us=dur,
            )
        )
        cursor += dur

    factors: Optional[np.ndarray] = None
    if rng is not None and jitter > 0 and kernel_bases:
        factors = np.maximum(
            0.5, 1.0 + jitter * rng.standard_normal(len(kernel_bases))
        )

    has_transfers = any(entry[3] for entry in kernel_bases)

    if hook is None and not has_transfers:
        if factors is not None:
            durs = base_vec * factors * overhead
        else:
            durs = base_vec * overhead
        cum = np.concatenate(([cursor], durs)).cumsum()
        starts = cum[:-1].tolist()
        dur_list = durs.tolist()
        timing.kernel_events.extend(
            KernelEvent(name, layer, start, dur)
            for (name, layer, _, _), start, dur in zip(
                kernel_bases, starts, dur_list
            )
        )
    elif hook is None:
        overheads = np.array(
            [
                memcpy_overhead if entry[3] else overhead
                for entry in kernel_bases
            ],
            dtype=np.float64,
        )
        if factors is not None:
            durs = base_vec * factors * overheads
        else:
            durs = base_vec * overheads
        cum = np.concatenate(([cursor], durs)).cumsum()
        starts = cum[:-1].tolist()
        dur_list = durs.tolist()
        for (name, layer, _, nbytes), start, dur in zip(
            kernel_bases, starts, dur_list
        ):
            if nbytes:
                timing.memcpy_events.append(
                    MemcpyEvent(
                        label=name,
                        bytes=nbytes,
                        calls=1,
                        start_us=start,
                        duration_us=dur,
                    )
                )
            else:
                timing.kernel_events.append(
                    KernelEvent(name, layer, start, dur)
                )
    else:
        for i, (kernel_name, layer_name, base, nbytes) in enumerate(
            kernel_bases
        ):
            if nbytes:
                if factors is not None:
                    dur = float(base * factors[i]) * memcpy_overhead
                else:
                    dur = base * memcpy_overhead
                dur *= hook.memcpy_factor(kernel_name)
                timing.memcpy_events.append(
                    MemcpyEvent(
                        label=kernel_name,
                        bytes=nbytes,
                        calls=1,
                        start_us=cursor,
                        duration_us=dur,
                    )
                )
                cursor += dur
                continue
            if factors is not None:
                dur = float(base * factors[i]) * overhead
            else:
                dur = base * overhead
            dur *= hook.kernel_factor(layer_name, kernel_name)
            timing.kernel_events.append(
                KernelEvent(
                    kernel_name=kernel_name,
                    layer_name=layer_name,
                    start_us=cursor,
                    duration_us=dur,
                )
            )
            cursor += dur
    return timing
