"""Compiled engines and their execution contexts.

An :class:`Engine` is the output of :class:`repro.engine.builder
.EngineBuilder`: an optimized graph plus a concrete kernel binding for
every layer, tied to the device it was built for.  Like a real TensorRT
plan, an engine *can* be copied to and executed on another device of
the same architecture — NVIDIA recommends against it, and the paper's
cases (2) and (3) study exactly that configuration.

:class:`ExecutionContext` separates the two halves of an inference:

* :meth:`ExecutionContext.execute` — numeric outputs (what the network
  computes, via :mod:`repro.runtime` with the engine's per-layer math);
* :meth:`ExecutionContext.time_inference` — latency (what the hardware
  model says the bound kernels cost, via :mod:`repro.hardware.gpu`).

``infer`` does both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

import numpy as np

from repro.graph.ir import Graph
from repro.hardware.specs import DeviceSpec
from repro.hardware.workload import LayerWorkload
from repro.runtime.executor import ExecutionResult, GraphExecutor
from repro.runtime.math_config import MathConfig

from repro.engine.kernels import KernelSpec
from repro.engine.tactics import TacticChoice

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.builder import PrecisionMode
    from repro.engine.passes import PassReport
    from repro.hardware.gpu import InferenceTiming, TimelineSkeleton
    from repro.profiling.nvprof import Nvprof
    from repro.runtime.providers import TransferSpec


@dataclass
class LayerBinding:
    """One layer's kernel assignment inside a compiled engine."""

    layer_name: str
    kernels: List[KernelSpec]
    workload: LayerWorkload
    tactic: Optional[TacticChoice]  # None for fixed sequences (detection)
    #: Execution provider that runs this binding ("trt" / "cuda" /
    #: "cpu").  Classic single-provider engines leave the default, so
    #: their timelines stay byte-identical.
    provider: str = "trt"
    #: Set on cross-provider transfer pseudo-bindings (partitioned
    #: engines only): the timeline bills them as DtoD memcpys and the
    #: numeric executor ignores them.
    transfer: Optional["TransferSpec"] = None


@dataclass
class Engine:
    """A compiled inference plan."""

    name: str
    source_network: str
    device: DeviceSpec
    graph: Graph
    bindings: List[LayerBinding]
    math_config: MathConfig
    size_bytes: int
    weight_chunks: List[int]
    input_name: str
    build_seed: int
    precision_mode: "PrecisionMode"
    pass_reports: List["PassReport"] = field(default_factory=list)
    build_time_us: float = 0.0

    # ------------------------------------------------------------------
    @property
    def num_kernels(self) -> int:
        """Kernel invocations per inference."""
        return sum(len(b.kernels) for b in self.bindings)

    def kernel_names(self) -> List[str]:
        """Names of every kernel invoked, in execution order."""
        return [k.name for b in self.bindings for k in b.kernels]

    def binding_for(self, layer_name: str) -> LayerBinding:
        for b in self.bindings:
            if b.layer_name == layer_name:
                return b
        raise KeyError(f"no binding for layer {layer_name!r}")

    @property
    def size_mb(self) -> float:
        return self.size_bytes / (1024.0 * 1024.0)

    def input_bytes(self) -> int:
        spec = self.graph.input_specs[self.input_name]
        return spec.volume * 4  # host-side input is FP32

    def workload_bytes(self, batch_size: int = 1) -> int:
        """DRAM bytes one engine execution moves across all bound
        kernels (activations scale with ``batch_size``, weights are
        streamed once per batched invocation)."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        loads = [b.workload for b in self.bindings]
        return batch_size * sum(
            w.bytes_in + w.bytes_out for w in loads
        ) + sum(w.bytes_w for w in loads)

    def create_execution_context(
        self,
        run_device: Optional[DeviceSpec] = None,
        layer_hook: Optional[object] = None,
    ) -> "ExecutionContext":
        """An execution context, optionally on a *different* device
        (the paper's cross-platform cases 2 and 3).  ``layer_hook`` is
        a fault-injection hook forwarded to the
        :class:`~repro.runtime.executor.GraphExecutor`."""
        return ExecutionContext(
            self, run_device or self.device, layer_hook=layer_hook
        )

    def describe(self) -> str:
        """Multi-line build summary."""
        lines = [
            f"Engine {self.name}",
            f"  built for        : {self.device.name}",
            f"  precision mode   : {self.precision_mode.value}",
            f"  layers           : {len(self.graph)}",
            f"  kernel bindings  : {len(self.bindings)} "
            f"({self.num_kernels} invocations/inference)",
            f"  plan size        : {self.size_mb:.2f} MB",
            f"  build seed       : {self.build_seed}",
        ]
        return "\n".join(lines)


class ExecutionContext:
    """Runs an engine, numerically and/or temporally, on a device."""

    def __init__(
        self,
        engine: Engine,
        device: DeviceSpec,
        layer_hook: Optional[object] = None,
    ):
        self.engine = engine
        self.device = device
        self._layer_hook = layer_hook
        # Built by the first execute(): most contexts only time
        # inferences and never schedule the graph.
        self._executor: Optional[GraphExecutor] = None
        # Deterministic timeline skeletons, keyed (clock, sm_fraction,
        # batch, upload).  Valid for this context's fixed engine+device
        # only, hence per-instance; repro.caching gates its use.
        self._timing_cache: Dict[object, "TimelineSkeleton"] = {}

    # ------------------------------------------------------------------
    def execute(self, **inputs: np.ndarray) -> ExecutionResult:
        """Numeric forward pass through the engine's bound kernels."""
        if self._executor is None:
            self._executor = GraphExecutor(
                self.engine.graph,
                self.engine.math_config,
                layer_hook=self._layer_hook,
            )
        return self._executor.run(**inputs)

    def time_inference(
        self,
        clock_mhz: Optional[float] = None,
        include_engine_upload: bool = True,
        rng: Optional[np.random.Generator] = None,
        jitter: float = 0.05,
        sm_fraction: float = 1.0,
        profiler: Optional["Nvprof"] = None,
        hardware_hook: Optional[object] = None,
        batch_size: int = 1,
        mem_contention: float = 1.0,
    ) -> "InferenceTiming":
        """Latency of one inference on ``self.device``.

        ``clock_mhz`` defaults to the run device's maximum clock.
        ``include_engine_upload`` counts the plan's HtoD memcpy (the
        paper's Table X toggles this).  ``rng``/``jitter`` model
        run-to-run measurement noise; pass ``jitter=0`` for the
        noiseless model time.  ``hardware_hook`` injects hardware
        faults (see :func:`repro.hardware.gpu.simulate_inference`).
        ``batch_size`` times one engine execution over a micro-batch:
        per-kernel workloads scale as
        :meth:`~repro.hardware.cost.CostTable.kernel_terms` describes
        and the input memcpy carries the whole batch.  ``mem_contention``
        (>= 1.0) stretches bandwidth-bound terms to model co-located
        tenants sharing DRAM (see :mod:`repro.serving.colocation`).
        """
        from repro.hardware.gpu import simulate_inference

        return simulate_inference(
            bindings=self.engine.bindings,
            device=self.device,
            clock_mhz=clock_mhz or self.device.max_gpu_clock_mhz,
            weight_chunks=self.engine.weight_chunks,
            input_bytes=self.engine.input_bytes(),
            include_engine_upload=include_engine_upload,
            rng=rng,
            jitter=jitter,
            sm_fraction=sm_fraction,
            profiler=profiler,
            hardware_hook=hardware_hook,
            batch_size=batch_size,
            skeleton_cache=self._timing_cache,
            mem_contention=mem_contention,
        )

    def infer(
        self,
        clock_mhz: Optional[float] = None,
        rng: Optional[np.random.Generator] = None,
        **inputs: np.ndarray,
    ) -> "InferenceOutcome":
        """Numeric outputs plus timing for one inference.  The timing's
        batch size follows the inputs' leading batch dimension."""
        outputs = self.execute(**inputs)
        first = next(iter(inputs.values()), None)
        batch_size = (
            int(np.asarray(first).shape[0]) if first is not None else 1
        )
        timing = self.time_inference(
            clock_mhz=clock_mhz,
            rng=rng,
            batch_size=batch_size,
        )
        return InferenceOutcome(result=outputs, timing=timing)


@dataclass
class InferenceOutcome:
    """Pair of numeric result and simulated timing."""

    result: ExecutionResult
    timing: "InferenceTiming"
