"""Device memory models: HtoD transfers and activation accounting.

Two concerns live here:

* :class:`MemcpyModel` — the ``[CUDA memcpy HtoD]`` cost model.  The
  paper's Table X splits inference latency into the engine-upload
  memcpy and kernel compute, and finds the upload is *slower on AGX*
  for several models even though AGX's DRAM has 2.7x the peak
  bandwidth.  The mechanism modeled here: each weight tensor is a
  separate memcpy call, and per-call driver/IOMMU overhead is higher on
  the AGX's larger memory system, while its *effective* single-stream
  copy bandwidth fraction is lower.  Engines made of many small tensors
  (ResNet-18, Inception-v4) are therefore overhead-dominated and upload
  slower on AGX; engines with few large tensors are
  bandwidth-dominated and upload faster.

* **Activation accounting** (paper Finding 2 / Eq. 1's RAM term) — the
  canonical per-stream activation and working-set byte counts.  The
  concurrency scheduler's RAM-capacity bound and the serving
  supervisor's admission control both budget with these numbers, and
  the dataflow analyzer (``repro.lint.flow``) independently re-derives
  them from tensor liveness and cross-validates against this module
  (rule ``D005``), so an accounting drift between the two
  implementations fails lint instead of silently mis-admitting streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.graph.ir import Graph
from repro.graph.shapes import infer_shapes
from repro.hardware.specs import DeviceSpec

#: Per-context scratch each stream keeps beyond its activation buffers
#: (CUDA context, cuDNN workspaces, staging buffers).
PER_CONTEXT_SCRATCH_BYTES = 24 * 1024 * 1024

#: Streams double-buffer activations (one buffer in flight, one being
#: filled), so the working set carries every activation tensor twice.
ACTIVATION_BUFFER_COPIES = 2


def activation_itemsize(precision_mode_value: str) -> int:
    """Bytes per activation element for an engine precision mode.

    The builder keeps FP16 activations for every non-FP32 build (INT8
    engines still move FP16 activations between the quantized layers),
    so only ``fp32`` engines store 4-byte activations.
    """
    return 4 if precision_mode_value == "fp32" else 2


def activation_bytes(
    graph: Graph, itemsize: int, batch_size: int = 1
) -> int:
    """Total activation bytes of one inference: every tensor the graph
    defines (inputs and all layer outputs), at ``itemsize`` bytes per
    element, scaled linearly by the micro-batch size."""
    shapes = infer_shapes(graph)
    return tensor_bytes_total(shapes, itemsize, batch_size)


def tensor_bytes_total(
    shapes: Dict[str, Tuple[int, ...]], itemsize: int, batch_size: int = 1
) -> int:
    """Sum of per-tensor byte sizes over an ``infer_shapes`` result."""
    return (
        sum(int(np.prod(s)) * itemsize for s in shapes.values())
        * batch_size
    )


def per_stream_working_set_bytes(
    graph: Graph, itemsize: int, batch_size: int = 1
) -> int:
    """Activation + engine working set of one stream (bytes).

    Double-buffered activations plus per-context scratch; the engine
    weights are shared across streams and excluded here."""
    return (
        activation_bytes(graph, itemsize, batch_size)
        * ACTIVATION_BUFFER_COPIES
        + PER_CONTEXT_SCRATCH_BYTES
    )


@dataclass(frozen=True)
class TransferCost:
    """Breakdown of one HtoD upload (microseconds)."""

    calls: int
    bytes: int
    overhead_us: float
    wire_us: float

    @property
    def total_us(self) -> float:
        return self.overhead_us + self.wire_us


class MemcpyModel:
    """Prices HtoD transfers on one device."""

    def __init__(self, device: DeviceSpec):
        self.device = device

    def transfer(self, chunk_sizes: Sequence[int]) -> TransferCost:
        """Upload a batch of buffers, one memcpy call per buffer."""
        dev = self.device
        total = int(sum(chunk_sizes))
        overhead = len(chunk_sizes) * dev.memcpy_call_overhead_us
        eff_bw_gbps = dev.mem_bandwidth_gbps * dev.memcpy_bandwidth_eff
        wire = total / (eff_bw_gbps * 1e3)
        return TransferCost(
            calls=len(chunk_sizes),
            bytes=total,
            overhead_us=overhead,
            wire_us=wire,
        )

    def single(self, nbytes: int) -> TransferCost:
        """One contiguous upload (e.g. the input image)."""
        return self.transfer([nbytes])

    def single_us(self, nbytes: np.ndarray) -> np.ndarray:
        """``single(n).total_us`` for every ``n`` in ``nbytes``, with
        the same float64 operations (one call's overhead is exactly
        ``memcpy_call_overhead_us``)."""
        dev = self.device
        eff_bw_gbps = dev.mem_bandwidth_gbps * dev.memcpy_bandwidth_eff
        return dev.memcpy_call_overhead_us + nbytes / (eff_bw_gbps * 1e3)
