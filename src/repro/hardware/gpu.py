"""Single-stream inference timeline simulation.

Given an engine's kernel bindings, produce the timeline a profiler
would record: the engine-upload and input HtoD memcpys followed by each
kernel invocation.  Run-to-run jitter (DVFS, DRAM refresh, background
interrupts) is modeled as multiplicative noise per kernel, which is why
repeated timings of the *same* engine show the standard deviations the
paper reports.

A timeline is a set of columns, not a list of event objects: the
noise-free durations come from the engine's
:class:`~repro.hardware.cost.CostTable` in a few elementwise float64
operations, one product applies jitter, profiler overhead and fault
factors, and one running sum gives the start times.  Every operation
repeats the scalar per-event arithmetic in the same order, so the
columns are bit-identical to an event-by-event simulation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.caching import caching_enabled
from repro.hardware.cost import cost_table
from repro.hardware.memory import MemcpyModel
from repro.hardware.specs import DeviceSpec
from repro.telemetry.bus import BUS, SpanKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.engine import LayerBinding
    from repro.profiling.nvprof import Nvprof


@dataclass(frozen=True)
class KernelEvent:
    """One kernel invocation on the timeline."""

    kernel_name: str
    layer_name: str
    start_us: float
    duration_us: float


@dataclass(frozen=True)
class MemcpyEvent:
    """One HtoD transfer on the timeline."""

    label: str
    bytes: int
    calls: int
    start_us: float
    duration_us: float


def sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float64 sum ``(v0 + v1) + v2 ...`` (0.0 if empty).

    This is what builtin ``sum()`` computed over floats before Python
    3.12, which switched it to compensated summation; ``np.sum`` sums
    pairwise.  Timeline totals use this reduction so that simulated
    latencies do not depend on the interpreter.
    """
    if len(values) == 0:
        return 0.0
    return float(np.add.accumulate(values)[-1])


_NO_EVENTS = np.zeros(0)
_NO_EVENTS.setflags(write=False)


class InferenceTiming:
    """Complete timeline of one inference (of ``batch_size`` samples).

    The timeline is held as columns per event kind: kernel and layer
    names (tuples shared with the timeline skeleton), memcpy labels,
    byte counts and call counts, and float64 start and duration
    vectors.  ``kernel_us`` and ``memcpy_us`` are summed once, in event
    order (:func:`sequential_sum`).  ``kernel_events`` and
    ``memcpy_events`` build the per-event records on first access, so
    consumers that only aggregate (latency totals, nvprof summaries)
    never create them.  Two timings are equal when their device, clock,
    batch and every event are.
    """

    __slots__ = (
        "device_name", "clock_mhz", "batch_size",
        "kernel_names", "kernel_layers", "kernel_starts", "kernel_durations",
        "memcpy_labels", "memcpy_bytes", "memcpy_calls", "memcpy_starts",
        "memcpy_durations", "kernel_us", "memcpy_us",
        "_kernel_events", "_memcpy_events",
    )

    def __init__(
        self,
        device_name: str,
        clock_mhz: float,
        batch_size: int = 1,
        *,
        kernel_names: Tuple[str, ...] = (),
        kernel_layers: Tuple[str, ...] = (),
        kernel_starts: np.ndarray = _NO_EVENTS,
        kernel_durations: np.ndarray = _NO_EVENTS,
        memcpy_labels: Tuple[str, ...] = (),
        memcpy_bytes: Tuple[int, ...] = (),
        memcpy_calls: Tuple[int, ...] = (),
        memcpy_starts: np.ndarray = _NO_EVENTS,
        memcpy_durations: np.ndarray = _NO_EVENTS,
    ):
        self.device_name = device_name
        self.clock_mhz = clock_mhz
        self.batch_size = batch_size
        self.kernel_names = kernel_names
        self.kernel_layers = kernel_layers
        self.kernel_starts = kernel_starts
        self.kernel_durations = kernel_durations
        self.memcpy_labels = memcpy_labels
        self.memcpy_bytes = memcpy_bytes
        self.memcpy_calls = memcpy_calls
        self.memcpy_starts = memcpy_starts
        self.memcpy_durations = memcpy_durations
        self.kernel_us = sequential_sum(kernel_durations)
        self.memcpy_us = sequential_sum(memcpy_durations)
        self._kernel_events: Optional[List[KernelEvent]] = None
        self._memcpy_events: Optional[List[MemcpyEvent]] = None

    @property
    def kernel_events(self) -> List[KernelEvent]:
        if self._kernel_events is None:
            self._kernel_events = list(map(
                KernelEvent,
                self.kernel_names,
                self.kernel_layers,
                self.kernel_starts.tolist(),
                self.kernel_durations.tolist(),
            ))
        return self._kernel_events

    @property
    def memcpy_events(self) -> List[MemcpyEvent]:
        if self._memcpy_events is None:
            self._memcpy_events = list(map(
                MemcpyEvent,
                self.memcpy_labels,
                self.memcpy_bytes,
                self.memcpy_calls,
                self.memcpy_starts.tolist(),
                self.memcpy_durations.tolist(),
            ))
        return self._memcpy_events

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InferenceTiming):
            return NotImplemented
        return (
            self.device_name, self.clock_mhz, self.batch_size,
            self.kernel_events, self.memcpy_events,
        ) == (
            other.device_name, other.clock_mhz, other.batch_size,
            other.kernel_events, other.memcpy_events,
        )

    def __repr__(self) -> str:
        return (
            f"InferenceTiming(device_name={self.device_name!r}, "
            f"clock_mhz={self.clock_mhz!r}, batch_size={self.batch_size!r}, "
            f"kernels={len(self.kernel_names)}, "
            f"memcpys={len(self.memcpy_labels)}, total_us={self.total_us!r})"
        )

    @property
    def total_us(self) -> float:
        return self.kernel_us + self.memcpy_us

    @property
    def total_ms(self) -> float:
        return self.total_us / 1e3

    @property
    def per_sample_us(self) -> float:
        """Amortized per-sample latency of a batched inference."""
        return self.total_us / self.batch_size

    def without_memcpy_us(self) -> float:
        """Latency with CUDA memcpy excluded (paper Table X)."""
        return self.kernel_us


class TimelineSkeleton(NamedTuple):
    """The deterministic part of a timeline, in event order.

    ``base_us`` is every event's duration before jitter, profiler
    overhead and fault factors.  ``memcpy`` marks the memcpy events
    (engine upload, input, and cross-provider transfers, which are
    billed as DtoD memcpys mid-stream); the rest are kernel
    invocations.  The other fields are the per-kind event records that
    every timing built from this skeleton shares.
    """

    base_us: np.ndarray
    memcpy: np.ndarray
    kernel_names: Tuple[str, ...]
    kernel_layers: Tuple[str, ...]
    memcpy_labels: Tuple[str, ...]
    memcpy_bytes: Tuple[int, ...]
    memcpy_calls: Tuple[int, ...]


def _timeline_skeleton(
    bindings: Sequence["LayerBinding"],
    device: DeviceSpec,
    clock_mhz: float,
    weight_chunks: Sequence[int],
    input_bytes: int,
    include_engine_upload: bool,
    sm_fraction: float,
    batch_size: int,
    mem_contention: float = 1.0,
) -> TimelineSkeleton:
    """The noise-free portion of the timeline.

    Everything here is a pure function of (engine, device, clock,
    sm_fraction, batch, contention): memcpy transfer times and
    per-kernel base durations.  Jitter, profiler overhead, and
    fault-hook factors are applied per call on top, so caching the
    skeleton cannot change any simulated byte.

    ``mem_contention`` models cross-tenant DRAM interference under
    co-location: every bandwidth-bound term (memcpy transfers and each
    kernel's Eq. 1 ``bandwidth_us``) stretches by the factor while
    compute stays untouched — which is exactly why compute-bound
    neighbors absorb co-location better than bandwidth-bound ones.
    ``1.0`` (the default, an exact float multiply by one) is
    bit-identical to the isolated timeline.
    """
    table = cost_table(bindings, device)
    kernel_base = table.kernel_us(
        table.kernel_terms(clock_mhz, sm_fraction, batch_size), mem_contention
    )
    # Cross-provider transfer rows (partitioned engines): the tensor
    # crosses a provider boundary as a DtoD memcpy, billed against the
    # Eq. 1 bandwidth model like any other transfer; activation bytes
    # scale with the micro-batch.
    memcpy = MemcpyModel(device)
    transfer_bytes = table.bytes_out * batch_size
    stream_us = np.where(
        table.transfer,
        memcpy.single_us(transfer_bytes) * mem_contention,
        kernel_base,
    )

    head_us: List[float] = []
    labels: List[str] = []
    nbytes: List[int] = []
    calls: List[int] = []
    if include_engine_upload and weight_chunks:
        up = memcpy.transfer(list(weight_chunks))
        head_us.append(up.total_us * mem_contention)
        labels.append("[CUDA memcpy HtoD] engine")
        nbytes.append(up.bytes)
        calls.append(up.calls)
    if input_bytes:
        single = memcpy.single(input_bytes * batch_size)
        head_us.append(single.total_us * mem_contention)
        labels.append("[CUDA memcpy HtoD] input")
        nbytes.append(single.bytes)
        calls.append(1)

    base_us = np.concatenate((head_us, stream_us))
    is_memcpy = np.concatenate((np.ones(len(head_us), bool), table.transfer))
    for column in (base_us, is_memcpy):
        column.setflags(write=False)
    transfers = transfer_bytes[table.transfer].tolist()
    return TimelineSkeleton(
        base_us=base_us,
        memcpy=is_memcpy,
        kernel_names=table.kernel_names,
        kernel_layers=table.kernel_layers,
        memcpy_labels=tuple(labels) + table.transfer_names,
        memcpy_bytes=tuple(nbytes + transfers),
        memcpy_calls=tuple(calls + [1] * len(transfers)),
    )


def _check_timeline_args(
    clock_mhz: float,
    sm_fraction: float,
    batch_size: int,
    mem_contention: float,
) -> None:
    """Reject arguments that would give a silently wrong timeline
    (``nan`` fails every comparison, so each check is written to pass
    only on valid values)."""
    if not 0.0 < clock_mhz < math.inf:
        raise ValueError(
            f"clock_mhz must be positive and finite, got {clock_mhz}"
        )
    if not 0.0 < sm_fraction <= 1.0:
        raise ValueError(f"sm_fraction must be in (0, 1], got {sm_fraction}")
    if not isinstance(batch_size, numbers.Integral) or batch_size < 1:
        raise ValueError(
            f"batch_size must be an integer >= 1, got {batch_size}"
        )
    if not 1.0 <= mem_contention < math.inf:
        raise ValueError(
            f"mem_contention must be finite and >= 1.0, got {mem_contention}"
        )


def _hook_factors(hook: object, skeleton: TimelineSkeleton) -> np.ndarray:
    """The hook's factor for every event, asked in event order.

    :class:`repro.faults.FaultInjector` rolls its fault triggers and
    logs firings per call, so the call order is part of the output."""
    labels = iter(skeleton.memcpy_labels)
    kernels = iter(zip(skeleton.kernel_layers, skeleton.kernel_names))
    memcpy_factor = getattr(hook, "memcpy_factor")
    kernel_factor = getattr(hook, "kernel_factor")
    return np.array(
        [
            memcpy_factor(next(labels)) if is_memcpy
            else kernel_factor(*next(kernels))
            for is_memcpy in skeleton.memcpy.tolist()
        ],
        dtype=np.float64,
    )


def simulate_inference(
    bindings: Sequence["LayerBinding"],
    device: DeviceSpec,
    clock_mhz: float,
    weight_chunks: Sequence[int],
    input_bytes: int,
    include_engine_upload: bool = True,
    rng: Optional[np.random.Generator] = None,
    jitter: float = 0.05,
    sm_fraction: float = 1.0,
    profiler: Optional["Nvprof"] = None,
    hardware_hook: Optional[object] = None,
    batch_size: int = 1,
    skeleton_cache: Optional[Dict[object, TimelineSkeleton]] = None,
    mem_contention: float = 1.0,
) -> InferenceTiming:
    """Simulate one inference and return its timeline.

    ``batch_size`` runs the whole engine once over a micro-batch: every
    kernel is priced at its layer's batched workload (see
    :meth:`~repro.hardware.cost.CostTable.kernel_terms`: linear
    activation traffic and FLOPs, amortized weights and launches), and
    the input memcpy carries ``batch_size`` images.  ``batch_size=1``
    is bit-identical to the pre-batching timeline.

    ``profiler`` (an :class:`repro.profiling.nvprof.Nvprof`) both
    records the events and *perturbs* them — profiling is not free, and
    the paper's Tables VIII vs IX quantify exactly that overhead.

    ``hardware_hook`` injects hardware-level faults: it provides
    ``memcpy_factor(label) -> float`` and
    ``kernel_factor(layer_name, kernel_name) -> float`` multipliers on
    event durations (DRAM-bandwidth degradation, memcpy stalls, kernel
    hangs), asked once per event in timeline order.
    :class:`repro.faults.FaultInjector` implements this protocol; a
    factor of exactly ``1.0`` leaves the timeline bit-identical to the
    hook-free run.

    ``mem_contention`` (>= 1.0) stretches every bandwidth-bound term —
    memcpys and each kernel's Eq. 1 ``bandwidth_us`` — modeling shared
    DRAM pressure from co-located tenants (see
    :mod:`repro.serving.colocation`); ``1.0`` is bit-identical to the
    isolated run.

    ``skeleton_cache`` (an engine-owned dict, see
    :class:`repro.engine.engine.ExecutionContext`) memoizes the
    deterministic timeline skeleton per (clock, sm_fraction, batch,
    upload, contention) key.  The caller must dedicate one dict per
    fixed (bindings, device, weight_chunks, input_bytes) tuple — the
    key does not re-derive those.  Jitter, profiler overhead, and
    fault hooks are applied per call in the original order, so cached
    and uncached timelines are bit-identical draw for draw.

    Invalid ``clock_mhz``, ``sm_fraction``, ``batch_size`` or
    ``mem_contention`` values (including ``nan`` and infinities) raise
    :class:`ValueError` before anything is simulated.
    """
    _check_timeline_args(clock_mhz, sm_fraction, batch_size, mem_contention)
    skeleton: Optional[TimelineSkeleton] = None
    cache_key: Optional[Tuple[float, float, int, bool, float]] = None
    if skeleton_cache is not None and caching_enabled():
        cache_key = (
            float(clock_mhz),
            float(sm_fraction),
            batch_size,
            bool(include_engine_upload),
            float(mem_contention),
        )
        skeleton = skeleton_cache.get(cache_key)
    if skeleton is None:
        skeleton = _timeline_skeleton(
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
        if cache_key is not None:
            skeleton_cache[cache_key] = skeleton

    # Each event lasts base * jitter * overhead * hook, multiplied left
    # to right, and starts where the running sum of the durations
    # before it ends.  A factor that does not apply is the scalar 1.0,
    # which is exact.  Jitter is one draw per event in event order: a
    # Generator consumes its stream identically for standard_normal(n)
    # and n scalar draws.
    jitter_factors: Union[float, np.ndarray] = 1.0
    if rng is not None and jitter > 0:
        jitter_factors = np.maximum(
            0.5, 1.0 + jitter * rng.standard_normal(len(skeleton.base_us))
        )
    overheads: Union[float, np.ndarray] = 1.0
    if profiler is not None:
        overheads = np.where(
            skeleton.memcpy,
            profiler.memcpy_overhead_factor,
            profiler.kernel_overhead_factor,
        )
    hooks: Union[float, np.ndarray] = 1.0
    if hardware_hook is not None:
        hooks = _hook_factors(hardware_hook, skeleton)
    durations = skeleton.base_us * jitter_factors * overheads * hooks
    starts = np.zeros_like(durations)
    np.cumsum(durations[:-1], out=starts[1:])
    memcpy = skeleton.memcpy
    kernel = ~memcpy
    timing = InferenceTiming(
        device.name,
        clock_mhz,
        batch_size,
        kernel_names=skeleton.kernel_names,
        kernel_layers=skeleton.kernel_layers,
        kernel_starts=starts[kernel],
        kernel_durations=durations[kernel],
        memcpy_labels=skeleton.memcpy_labels,
        memcpy_bytes=skeleton.memcpy_bytes,
        memcpy_calls=skeleton.memcpy_calls,
        memcpy_starts=starts[memcpy],
        memcpy_durations=durations[memcpy],
    )

    if profiler is not None:
        profiler.record(timing)
    if BUS.active:
        # Telemetry is emission-only: the timing above is already
        # complete and no randomness was drawn, so the disabled path is
        # bit-identical by construction.
        for mev in timing.memcpy_events:
            BUS.emit(
                SpanKind.MEMCPY,
                mev.label,
                start_us=mev.start_us,
                dur_us=mev.duration_us,
                bytes=mev.bytes,
                calls=mev.calls,
            )
        for kev in timing.kernel_events:
            BUS.emit(
                SpanKind.KERNEL,
                kev.kernel_name,
                start_us=kev.start_us,
                dur_us=kev.duration_us,
                layer=kev.layer_name,
            )
        BUS.emit(
            SpanKind.INFERENCE,
            device.name,
            dur_us=timing.total_us,
            clock_mhz=clock_mhz,
            batch_size=batch_size,
            kernel_us=timing.kernel_us,
            memcpy_us=timing.memcpy_us,
            _timing=timing,
        )
    return timing
