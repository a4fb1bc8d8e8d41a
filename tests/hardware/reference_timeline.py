"""Reference timeline: the event-by-event simulator that the columnar
:func:`repro.hardware.gpu.simulate_inference` replaced, kept as the
oracle.

:func:`timeline_skeleton` prices every kernel with the scalar, memoized
:meth:`~repro.hardware.cost.CostModel.kernel_cost` and branches per
provider and per multi-kernel binding.  :func:`simulate_inference`
applies jitter, profiler overhead and fault factors one event at a
time, with separate plain, partitioned and hooked paths, and appends
frozen :class:`~repro.hardware.gpu.KernelEvent` and
:class:`~repro.hardware.gpu.MemcpyEvent` records.

Three things differ from the code as it last ran in ``src/``:

* the timeline-skeleton cache is gone (it never changed a byte, and
  the columnar simulator keeps it);
* the ``hardware_hook`` calls drop their unused ``start_us`` argument,
  as the protocol now does;
* :class:`ReferenceTiming` sums its totals with an explicit left-to-
  right loop, which is what builtin ``sum()`` did before Python 3.12,
  so the oracle means the same on every interpreter.

``tests/hardware/test_timeline_oracle.py`` and
``python -m tests.hardware.timeline_oracle`` compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.cost import CostModel
from repro.hardware.gpu import KernelEvent, MemcpyEvent
from repro.hardware.memory import MemcpyModel
from repro.hardware.specs import DeviceSpec


def left_to_right_sum(values) -> float:
    """``((0 + v0) + v1) + ...``: builtin ``sum()`` before Python 3.12."""
    total = 0
    for value in values:
        total = total + value
    return total


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
    cost_model = CostModel(device)
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
        workload = binding.workload.for_batch(batch_size)
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
            cost = cost_model.kernel_cost(
                kernel,
                workload,
                clock_mhz,
                sm_fraction=sm_fraction,
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
