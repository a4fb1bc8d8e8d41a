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

One implementation prices kernels, in two steps.  A :class:`CostTable`
holds the clock-independent terms of rows of (kernel, workload) pairs
on one device as float64 columns: :class:`KernelColumns` gathers what
depends on the kernels alone, and the table adds the workloads, one
per row or one for every row.  :meth:`CostTable.kernel_terms` then
prices every row at one (clock, SM share, batch) point in a few
elementwise operations.  Every caller goes through it: the timeline
and the inspector price an engine's bindings (:func:`cost_table`), the
tactic selector prices an auction's candidate list against one layer
(:func:`kernel_columns`), and :meth:`CostModel.kernel_cost` is the
one-row query.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Any, Callable, Dict, List, Sequence, Tuple, Union

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

        This is the one-row query of :class:`CostTable`; callers that
        price many kernels (timelines, auctions, the inspector) use a
        table directly.  Stochastic measurement noise is applied by
        callers on top of this deterministic cost.
        """
        if not 0.0 < sm_fraction <= 1.0:
            raise ValueError(f"sm_fraction must be in (0, 1], got {sm_fraction}")
        table = CostTable(KernelColumns(self.device, [kernel]), workload)
        launch, compute, bandwidth, latency = table.kernel_terms(
            clock_mhz, sm_fraction, 1
        )
        return KernelCost(
            launch, compute.item(), bandwidth.item(), latency.item()
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


class KernelColumns:
    """What the cost formula reads from a list of kernels on a device,
    one read-only float64 entry per kernel.  Derived entries are the
    formula's leading sub-expressions in its operation order
    (``2·tile_m·tile_n``, ``4·latency·penalty/1e3``, ``bw·bw_eff``)."""

    def __init__(self, device: DeviceSpec, kernels: Sequence) -> None:
        self.device = device
        self.tile_m = _column([k.tile_m for k in kernels])
        self.tile_n = _column([k.tile_n for k in kernels])
        self.tile_flops = _column(2.0 * self.tile_m * self.tile_n)
        self.split_k = _column([k.split_k for k in kernels])
        self.blocks_per_sm = _column([k.blocks_per_sm for k in kernels])
        self.prefetch_depth = _column([k.prefetch_depth for k in kernels])
        self.per_sm_flops = _column(
            [_per_sm_flops_per_clock(device, k) for k in kernels]
        )
        self.burst_penalty = _column([_burst_penalty(device, k) for k in kernels])
        self.flat_latency = _column(
            4.0 * device.dram_latency_ns * self.burst_penalty / 1e3
        )
        self.peak_bw_gbps = _column(
            [device.mem_bandwidth_gbps * k.bw_eff for k in kernels]
        )


def _pinned(
    memo: Dict, device: DeviceSpec, items: Sequence, build: Callable[[], Any]
) -> Any:
    """``build()``, memoized in ``memo`` (registered with
    :mod:`repro.caching`) by ``device`` and the identity of each of
    ``items``, which must not change.  The entry pins the items, so no
    id is reused while it lives.  With caching disabled every call
    builds afresh."""
    if not caching_enabled():
        return build()
    key = (device, tuple(map(id, items)))
    entry = memo.get(key)
    if entry is None:
        entry = memo[key] = (tuple(items), build())
    return entry[1]


_KERNEL_COLUMNS: Dict = {}
register_cache(_KERNEL_COLUMNS.clear)


def kernel_columns(device: DeviceSpec, kernels: Sequence) -> KernelColumns:
    """The :class:`KernelColumns` of ``kernels`` on ``device``, memoized
    by each kernel's identity: every auction of a build draws from the
    same few candidate lists."""
    return _pinned(
        _KERNEL_COLUMNS, device, kernels,
        lambda: KernelColumns(device, kernels),
    )


class CostTable:
    """Clock-independent cost terms of (kernel, workload) rows.

    ``workloads`` is one :class:`LayerWorkload` per row, or one workload
    whose fields broadcast over every kernel (an auction's candidate
    list); a single kernel broadcasts over many workloads the same way.
    The table adds what the formula computes before it sees the clock,
    the SM share or the batch (M tiles, FLOPs per block, prefetch
    strides).  Byte counts stay integers, so batch scaling is exact,
    and integer quantities stay below 2^53, so float64 holds them
    exactly.  The binding-level factors :meth:`kernel_us` applies are
    identities here; :class:`EngineCostTable` sets them per row.
    """

    compute_scale: Union[float, np.ndarray] = 1.0
    bandwidth_scale: Union[float, np.ndarray] = 1.0
    launch_scale: Union[float, np.ndarray] = 1.0
    latency_scale: Union[float, np.ndarray] = 1.0
    n_kernels: Union[float, np.ndarray] = 1.0

    def __init__(
        self,
        kernels: KernelColumns,
        workloads: Union[LayerWorkload, Sequence[LayerWorkload]],
    ) -> None:
        fields: Tuple[Any, ...]
        if isinstance(workloads, LayerWorkload):
            w = workloads
            fields = (
                w.gemm_m, w.gemm_n, w.gemm_k, w.flops,
                w.bytes_in + w.bytes_out, w.bytes_w,
            )
        else:
            fields = (
                _column([w.gemm_m for w in workloads]),
                _column([w.gemm_n for w in workloads]),
                _column([w.gemm_k for w in workloads]),
                _column([w.flops for w in workloads]),
                _column(
                    [w.bytes_in + w.bytes_out for w in workloads], np.int64
                ),
                _column([w.bytes_w for w in workloads], np.int64),
            )
        gemm_m, gemm_n, gemm_k, flops, act_bytes, weight_bytes = fields
        self.kernels = kernels
        self.gemm = gemm_k > 0
        self.m_tiles = np.ceil(gemm_m / kernels.tile_m)
        self.gemm_n = gemm_n
        self.flops_per_block = kernels.tile_flops * gemm_k / kernels.split_k
        self.strides = np.ceil(
            gemm_k / kernels.split_k / kernels.prefetch_depth
        )
        self.flops = flops
        self.act_bytes = act_bytes
        self.weight_bytes = weight_bytes

    def kernel_terms(
        self, clock_mhz: float, sm_fraction: float, batch_size: int
    ) -> Tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """``(launch_us, compute_us, bandwidth_us, latency_us)`` of
        every row at one operating point, the launch term as one scalar
        per device.  A batch of ``B`` multiplies what a batched
        invocation multiplies (FLOPs, activation bytes and the GEMM
        N dimension); weight bytes, the GEMM M and K dimensions and
        the launch stay as they are.  The caller validates the
        arguments."""
        k = self.kernels
        dev = k.device
        effective_sms = max(1.0, dev.sms * sm_fraction)
        clock_hz = clock_mhz * 1e6
        # GEMM-shaped rows: wave-quantized tile math.
        blocks = (
            self.m_tiles
            * np.ceil(self.gemm_n * batch_size / k.tile_n)
            * k.split_k
        )
        concurrent = np.maximum(1.0, int(effective_sms) * k.blocks_per_sm)
        waves = np.ceil(blocks / concurrent)
        per_block_rate = k.per_sm_flops * clock_hz / k.blocks_per_sm
        gemm_compute = waves * self.flops_per_block / per_block_rate * 1e6
        gemm_latency = (
            waves * self.strides * dev.dram_latency_ns
            * k.burst_penalty / 1e3
        )
        # Pointwise-ish rows: throughput-limited element math.
        rate = k.per_sm_flops * effective_sms * clock_hz
        flat_compute = self.flops * batch_size / rate * 1e6
        total_bytes = self.act_bytes * batch_size + self.weight_bytes
        return (
            dev.kernel_launch_overhead_us,
            np.where(self.gemm, gemm_compute, flat_compute),
            total_bytes / (k.peak_bw_gbps * sm_fraction * 1e3),
            np.where(self.gemm, gemm_latency, k.flat_latency),
        )

    def kernel_us(
        self,
        terms: Tuple[float, np.ndarray, np.ndarray, np.ndarray],
        mem_contention: float = 1.0,
    ) -> np.ndarray:
        """Every row's time from its :meth:`kernel_terms`: ``launch +
        max(compute, bandwidth) + latency`` with the binding's factors.
        A multi-kernel binding (detection pipeline) splits the layer's
        *work* across its kernels, while each still pays its own launch
        and latency; non-TRT providers divide the FLOP rate and
        bandwidth and multiply launch and latency.  ``mem_contention``
        stretches the bandwidth term (co-located tenants).  Identity
        factors are exact (``x·1.0 == x/1.0 == x``)."""
        launch, compute, bandwidth, latency = terms
        work = np.maximum(
            compute / self.compute_scale,
            bandwidth * mem_contention / self.bandwidth_scale,
        ) / self.n_kernels
        return launch * self.launch_scale + work + latency * self.latency_scale


class EngineCostTable(CostTable):
    """The cost table of an engine's bindings on a device.

    One row per timeline entry, in execution order: one row for every
    kernel of every binding, and one row for each cross-provider
    transfer binding (``transfer`` is set on those rows, whose kernel
    terms the timeline discards: it prices them as memcpys from
    ``bytes_out``).  Rows also carry the binding-level factors
    :meth:`~CostTable.kernel_us` applies: the provider's four cost
    scales (identity for TRT) and the binding's kernel count.
    """

    def __init__(self, bindings: Sequence, device: DeviceSpec):
        from repro.runtime.providers import (
            ProviderCostParams,
            provider_cost_params,
        )

        identity = ProviderCostParams()
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

        loads = [r[3] for r in rows]
        super().__init__(
            KernelColumns(
                device, [_UnitKernel if r[2] is None else r[2] for r in rows]
            ),
            loads,
        )
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
        self.bytes_out = _column([w.bytes_out for w in loads], np.int64)
        self.n_kernels = _column([r[5] for r in rows])
        self.compute_scale = _column([r[4].compute_scale for r in rows])
        self.bandwidth_scale = _column([r[4].bandwidth_scale for r in rows])
        self.launch_scale = _column([r[4].launch_scale for r in rows])
        self.latency_scale = _column([r[4].latency_scale for r in rows])


_TABLES: Dict = {}
register_cache(_TABLES.clear)


def cost_table(bindings: Sequence, device: DeviceSpec) -> EngineCostTable:
    """The :class:`EngineCostTable` of ``bindings`` on ``device``,
    memoized by each binding's identity (bindings are immutable once an
    engine is built).

    All timing contexts of an engine on a device share one table, so a
    fresh context (the paper tables make one per cell) prices its
    kernels without rebuilding it.
    """
    return _pinned(
        _TABLES, device, bindings, lambda: EngineCostTable(bindings, device)
    )
