"""Unoptimized-execution baseline: running the framework model directly.

The paper's "un-optimized" numbers (Tables III, IV, VII) come from
running the original Caffe/TensorFlow/Darknet model on the board with
no inference engine.  That path differs from an engine in three
compounding ways, all modeled here:

* one FP32 kernel per layer — no fusion, so every layer pays a kernel
  launch and a full DRAM round-trip for its activations;
* generic im2col-style kernels with poor achieved bandwidth (frameworks
  ship portable kernels, not per-GPU-tuned ones);
* per-layer host-side framework dispatch (op lookup, descriptor setup,
  Python/protobuf overhead) on the Jetson's ARM cores.

Together these produce the ~23-27x throughput gap the paper measures.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.ir import DataType, Graph, LayerKind
from repro.graph.shapes import infer_shapes
from repro.hardware.cost import CostTable, KernelColumns
from repro.hardware.gpu import sequential_sum
from repro.hardware.memory import MemcpyModel
from repro.hardware.specs import DeviceSpec
from repro.hardware.workload import layer_workload

#: Host-side dispatch cost per layer on a 6-core Carmel CPU (us).
FRAMEWORK_DISPATCH_US = 260.0


class _GenericKernel:
    """The one-size-fits-all FP32 kernel a framework falls back to."""

    name = "framework_generic_fp32_kernel"
    category = "generic"
    precision = DataType.FP32
    tile_m = 64
    tile_n = 32
    blocks_per_sm = 2
    split_k = 1
    prefetch_depth = 8
    bw_eff = 0.30
    uses_tensor_cores = False
    pad_weights_to_tile = False


class UnoptimizedRuntime:
    """Times direct framework execution of a raw (unoptimized) graph."""

    def __init__(self, device: DeviceSpec):
        self.device = device
        self.memcpy = MemcpyModel(device)

    def inference_time_us(
        self,
        graph: Graph,
        clock_mhz: Optional[float] = None,
        rng: Optional[np.random.Generator] = None,
        jitter: float = 0.05,
    ) -> float:
        """Latency of one inference of the raw model (microseconds)."""
        clock = clock_mhz or self.device.max_gpu_clock_mhz
        shapes = infer_shapes(graph)
        dispatch = FRAMEWORK_DISPATCH_US * 6.0 / self.device.cpu_cores
        # The generic kernel runs every layer: one kernel row broadcast
        # over the layers' workloads.
        table = CostTable(
            KernelColumns(self.device, [_GenericKernel]),
            [
                layer_workload(layer, shapes, DataType.FP32)
                for layer in graph.toposort()
                if layer.kind is not LayerKind.INPUT
            ],
        )
        layer_us = table.kernel_us(table.kernel_terms(clock, 1.0, 1))
        total = sequential_sum(layer_us + dispatch)
        # Input image HtoD each frame.
        for spec in graph.input_specs.values():
            total += self.memcpy.single(spec.volume * 4).total_us
        if rng is not None and jitter > 0:
            total *= max(0.5, 1.0 + jitter * rng.standard_normal())
        return total

    def fps(self, graph: Graph, clock_mhz: Optional[float] = None) -> float:
        """Throughput of the raw model."""
        return 1e6 / self.inference_time_us(graph, clock_mhz)
