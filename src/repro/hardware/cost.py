"""Analytic kernel cost model for the Volta-class edge GPUs.

A kernel's execution time is modeled as::

    launch + max(compute, bandwidth) + latency_exposure

* ``compute`` uses wave quantization: the CTA grid is split into waves
  of (SMs x blocks_per_sm) concurrent blocks; a wave takes the time of
  one full CTA tile regardless of how many of its slots are used.
  Small layers on big-tile kernels therefore waste most of each wave —
  the reason the tactic selector prefers small tiles for small layers.
* ``bandwidth`` prices total DRAM traffic at the kernel's achieved
  fraction of peak bandwidth.
* ``latency_exposure`` models dependent-load chains: each wave walks
  the reduction axis in ``prefetch_depth`` strides, paying one DRAM
  latency per stride.  This term is why a device with *more* SMs but
  *higher* memory latency (AGX vs NX) can run small kernels slower —
  the mechanism behind the paper's Finding 5 / Table XI.

All times are in microseconds.

Two implementations price kernels.  :meth:`CostModel.kernel_cost`
prices one (kernel, workload) pair at a time for the builder-side
callers (tactic timing, the inspector, interference probes, the
unoptimized baseline).  :class:`CostTable` holds the clock-independent
terms of a whole engine as float64 columns and prices every kernel at
once; the timeline simulator uses it.  The table repeats the scalar
formula's IEEE operations in the same order, so the two agree bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.caching import caching_enabled, register_cache
from repro.graph.ir import DataType
from repro.hardware.specs import DeviceSpec
from repro.hardware.workload import LayerWorkload


def _per_sm_flops_per_clock(device: DeviceSpec, kernel) -> float:
    """Peak FLOPs issued per SM per clock for the kernel's math path."""
    if kernel.uses_tensor_cores:
        per_tc = 256.0 if kernel.precision is DataType.INT8 else 128.0
        return device.tensor_cores_per_sm * per_tc
    # CUDA cores: FMA = 2 FLOP/clock; packed fp16x2 doubles it.
    scale = 2.0 if kernel.precision is DataType.FP16 else 1.0
    return device.cores_per_sm * 2.0 * scale


@dataclass(frozen=True)
class KernelCost:
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


class CostModel:
    """Prices kernel invocations and engine uploads on one device."""

    def __init__(self, device: DeviceSpec):
        self.device = device

    # ------------------------------------------------------------------
    def kernel_cost(
        self,
        kernel,
        workload: LayerWorkload,
        clock_mhz: float,
        sm_fraction: float = 1.0,
    ) -> KernelCost:
        """Cost of running ``kernel`` over ``workload`` at ``clock_mhz``.

        ``sm_fraction`` (0 < f <= 1) models SM partitioning under
        concurrent streams: the kernel sees only a fraction of the SMs.

        The breakdown is pure arithmetic over hashable inputs, so it is
        memoized by (device, kernel, workload, clock, sm_fraction) —
        repeated builder-side queries (the same candidate timed for
        identical layers, inspector and interference probes) hit the
        cache.  Timelines price whole engines through
        :class:`CostTable` instead.  Stochastic measurement noise is
        applied by *callers* on top of this deterministic cost, so
        memoization cannot leak jitter between queries.
        """
        if not 0.0 < sm_fraction <= 1.0:
            raise ValueError(f"sm_fraction must be in (0, 1], got {sm_fraction}")
        if caching_enabled():
            try:
                return _kernel_cost_cached(
                    self.device, kernel, workload, clock_mhz, sm_fraction
                )
            except TypeError:
                # Unhashable kernel stand-ins (test doubles): price
                # directly without caching.
                pass
        return _compute_kernel_cost(
            self.device, kernel, workload, clock_mhz, sm_fraction
        )

    def kernel_time_us(
        self,
        kernel,
        workload: LayerWorkload,
        clock_mhz: float,
        sm_fraction: float = 1.0,
    ) -> float:
        """Convenience wrapper for :meth:`kernel_cost`'s total."""
        return self.kernel_cost(kernel, workload, clock_mhz, sm_fraction).total_us


@lru_cache(maxsize=None)
def _kernel_cost_cached(
    device: DeviceSpec,
    kernel,
    workload: LayerWorkload,
    clock_mhz: float,
    sm_fraction: float,
) -> KernelCost:
    """Memoized cost: DeviceSpec/KernelSpec/LayerWorkload are all
    frozen dataclasses, so the argument tuple is a complete key."""
    return _compute_kernel_cost(device, kernel, workload, clock_mhz, sm_fraction)


register_cache(_kernel_cost_cached.cache_clear)


def _compute_kernel_cost(
    dev: DeviceSpec,
    kernel,
    workload: LayerWorkload,
    clock_mhz: float,
    sm_fraction: float,
) -> KernelCost:
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

    return KernelCost(
        launch_us=dev.kernel_launch_overhead_us,
        compute_us=compute_us,
        bandwidth_us=bandwidth_us,
        latency_us=latency_us,
    )


def _burst_penalty(dev: DeviceSpec, kernel) -> float:
    # Burst-granularity mismatch: a kernel consuming only a small
    # fraction of each DRAM burst pays proportionally more latency
    # trips on a wide memory controller.  Accesses of at least a
    # half burst still coalesce across the controller's channel
    # pair; below a quarter burst the trips serialize.  This is the
    # per-kernel mechanism behind the paper's Table XI (specific
    # kernel variants slower on the AGX's 256-bit memory system).
    granularity = getattr(kernel, "access_granularity_bytes", 64)
    ratio = dev.min_burst_bytes / granularity
    return ratio if ratio >= 4.0 else 1.0


def _column(values: Sequence, dtype: type = np.float64) -> np.ndarray:
    column = np.array(values, dtype=dtype)
    column.setflags(write=False)
    return column


class _UnitKernel:
    """Stand-in kernel for transfer rows: unit tiles and rates keep
    their kernel terms finite (the timeline prices those rows as
    memcpys and discards the kernel terms)."""

    tile_m = tile_n = blocks_per_sm = split_k = prefetch_depth = 1
    bw_eff = 1.0
    uses_tensor_cores = False
    precision = DataType.FP32


class CostTable:
    """Clock-independent cost terms of an engine's bindings on a device.

    One row per timeline entry, in execution order: one row for every
    kernel of every binding, and one row for each cross-provider
    transfer binding (``transfer`` is set on those rows).  Columns are
    read-only float64 vectors, except the two row masks (``transfer``,
    ``gemm``) and the byte counts, which stay int64 so that batch
    scaling is exact integer arithmetic, as in
    :meth:`LayerWorkload.for_batch`.

    :meth:`kernel_terms` prices every row at one (clock, sm_fraction,
    batch) point.  Its elementwise operations are those of
    :func:`_compute_kernel_cost` in the same order, and the columns
    precompute only sub-expressions that the scalar code evaluates
    before it touches the clock, the SM share or the batch, so each
    row's terms are bit-identical to the scalar cost of its kernel.

    Rows also carry the binding-level factors the timeline applies:
    the provider's four cost scales and the binding's kernel count
    (the multi-kernel work divisor).  TRT rows carry identity scales,
    and a single-kernel binding divides by 1; multiplying or dividing
    by 1.0 is exact, so one formula serves every provider.
    """

    def __init__(self, bindings: Sequence, device: DeviceSpec):
        from repro.runtime.providers import (
            ProviderCostParams,
            provider_cost_params,
        )

        identity = ProviderCostParams()
        dev = self.device = device
        # (name, layer, kernel or None for transfers, workload,
        #  provider params, kernels in the binding)
        rows: List[Tuple] = []
        for binding in bindings:
            if getattr(binding, "transfer", None) is not None:
                rows.append((
                    f"[CUDA memcpy DtoD] {binding.layer_name}",
                    binding.layer_name, None, binding.workload, identity, 1,
                ))
                continue
            provider = getattr(binding, "provider", "trt")
            params = (
                identity if provider == "trt"
                else provider_cost_params(provider)
            )
            for kernel in binding.kernels:
                rows.append((
                    kernel.name, binding.layer_name, kernel,
                    binding.workload, params, len(binding.kernels),
                ))

        is_kernel = [r[2] is not None for r in rows]
        #: Timeline names of the kernel rows and of the transfer rows.
        self.kernel_names: Tuple[str, ...] = tuple(
            compress([r[0] for r in rows], is_kernel)
        )
        self.kernel_layers: Tuple[str, ...] = tuple(
            compress([r[1] for r in rows], is_kernel)
        )
        self.transfer_names: Tuple[str, ...] = tuple(
            r[0] for r in rows if r[2] is None
        )
        self.transfer = _column([not k for k in is_kernel], bool)
        kernels = [_UnitKernel if r[2] is None else r[2] for r in rows]
        loads = [r[3] for r in rows]
        penalties = [_burst_penalty(dev, k) for k in kernels]

        self.gemm = _column([w.gemm_k > 0 for w in loads], bool)
        self.m_tiles = _column([
            math.ceil(w.gemm_m / k.tile_m) for k, w in zip(kernels, loads)
        ])
        self.gemm_n = _column([w.gemm_n for w in loads])
        self.tile_n = _column([k.tile_n for k in kernels])
        self.split_k = _column([k.split_k for k in kernels])
        self.blocks_per_sm = _column([k.blocks_per_sm for k in kernels])
        self.flops_per_block = _column([
            2.0 * k.tile_m * k.tile_n * w.gemm_k / k.split_k
            for k, w in zip(kernels, loads)
        ])
        self.strides = _column([
            math.ceil(w.gemm_k / k.split_k / k.prefetch_depth)
            for k, w in zip(kernels, loads)
        ])
        self.per_sm_flops = _column(
            [_per_sm_flops_per_clock(dev, k) for k in kernels]
        )
        self.burst_penalty = _column(penalties)
        self.flat_latency = _column(
            [4.0 * dev.dram_latency_ns * bp / 1e3 for bp in penalties]
        )
        self.flops = _column([w.flops for w in loads])
        self.peak_bw_gbps = _column(
            [dev.mem_bandwidth_gbps * k.bw_eff for k in kernels]
        )
        self.act_bytes = _column(
            [w.bytes_in + w.bytes_out for w in loads], np.int64
        )
        self.weight_bytes = _column([w.bytes_w for w in loads], np.int64)
        self.bytes_out = _column([w.bytes_out for w in loads], np.int64)
        self.n_kernels = _column([r[5] for r in rows])
        self.compute_scale = _column([r[4].compute_scale for r in rows])
        self.bandwidth_scale = _column([r[4].bandwidth_scale for r in rows])
        self.launch_scale = _column([r[4].launch_scale for r in rows])
        self.latency_scale = _column([r[4].latency_scale for r in rows])

    def kernel_terms(
        self, clock_mhz: float, sm_fraction: float, batch_size: int
    ) -> Tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """``(launch_us, compute_us, bandwidth_us, latency_us)`` of
        every row at one operating point: row ``i`` holds the
        :class:`KernelCost` fields of ``kernel_cost(kernel_i,
        workload_i.for_batch(batch_size), clock_mhz, sm_fraction)``
        (the launch term is one scalar per device).  The caller
        validates the arguments."""
        dev = self.device
        effective_sms = max(1.0, dev.sms * sm_fraction)
        clock_hz = clock_mhz * 1e6
        # GEMM-shaped rows: wave-quantized tile math.
        blocks = (
            self.m_tiles
            * np.ceil(self.gemm_n * batch_size / self.tile_n)
            * self.split_k
        )
        concurrent = np.maximum(1.0, int(effective_sms) * self.blocks_per_sm)
        waves = np.ceil(blocks / concurrent)
        per_block_rate = self.per_sm_flops * clock_hz / self.blocks_per_sm
        gemm_compute = waves * self.flops_per_block / per_block_rate * 1e6
        gemm_latency = (
            waves * self.strides * dev.dram_latency_ns
            * self.burst_penalty / 1e3
        )
        # Pointwise-ish rows: throughput-limited element math.
        rate = self.per_sm_flops * effective_sms * clock_hz
        flat_compute = self.flops * batch_size / rate * 1e6
        total_bytes = self.act_bytes * batch_size + self.weight_bytes
        return (
            dev.kernel_launch_overhead_us,
            np.where(self.gemm, gemm_compute, flat_compute),
            total_bytes / (self.peak_bw_gbps * sm_fraction * 1e3),
            np.where(self.gemm, gemm_latency, self.flat_latency),
        )


_TABLES: Dict[Tuple[DeviceSpec, Tuple[int, ...]], Tuple[tuple, CostTable]] = {}


def cost_table(bindings: Sequence, device: DeviceSpec) -> CostTable:
    """The :class:`CostTable` of ``bindings`` on ``device``, memoized.

    All timing contexts of an engine on a device share one table, so a
    fresh context (the paper tables make one per cell) prices its
    kernels without rebuilding it.  The key is the identity of each
    binding, and the entry pins the bindings, so no id is reused while
    the entry lives; bindings are immutable once an engine is built.
    The memo is registered with :mod:`repro.caching`:
    ``clear_caches()`` drops it like every other memo, and with caching
    disabled every call builds a fresh table.
    """
    if not caching_enabled():
        return CostTable(bindings, device)
    key = (device, tuple(map(id, bindings)))
    entry = _TABLES.get(key)
    if entry is None:
        entry = _TABLES[key] = (tuple(bindings), CostTable(bindings, device))
    return entry[1]


register_cache(_TABLES.clear)
