"""Engine building: the full Figure 2 pipeline, per target device.

``EngineBuilder.build`` consumes a frontend graph and produces an
:class:`~repro.engine.engine.Engine` — an optimized graph whose every
layer is bound to a concrete kernel tactic, with the engine-file size
accounted the way a serialized plan would be.

Builds are **non-deterministic by default** (``seed=None`` draws fresh
entropy), because tactic auctions are timing-based; pass an explicit
``seed`` for reproducible builds (the analysis harness does, so the
paper's tables regenerate stably).
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.graph.ir import DataType, Graph, Layer
from repro.graph.partition import (
    PartitionedEngine,
    PartitionPlan,
    partition_graph,
    transfer_binding,
)
from repro.graph.shapes import infer_shapes
from repro.hardware.specs import DeviceSpec
from repro.hardware.workload import LayerWorkload, layer_workload
from repro.runtime.math_config import LayerMath, MathConfig
from repro.runtime.providers import (
    TRT_PROVIDER,
    ExecutionProvider,
    ProviderSpec,
    TransferSpec,
    canonical_provider_key,
    resolve_providers,
)

from repro.engine.engine import Engine, LayerBinding
from repro.engine.kernels import DEFAULT_CATALOG, KernelCatalog, KernelSpec
from repro.engine.passes import (
    CalibrationCache,
    PassReport,
    calibrate_int8,
    fuse_vertically,
    merge_horizontally,
    plan_quantization,
    remove_dead_layers,
)
from repro.engine.tactics import TacticChoice, TacticSelector
from repro.engine.timing_cache import TIMING_CACHE_LOOKUP_US, TimingCache
from repro.lint.invariants import PassInvariantGuard
from repro.telemetry.bus import BUS, SpanKind

#: Serialized-plan overhead: fixed header + per-binding kernel metadata.
#: Sized to the repo's scaled-down models (DESIGN.md §5) so overhead
#: relates to weight volume the way a real plan's does.
PLAN_FIXED_OVERHEAD_BYTES = 48 * 1024
PLAN_PER_BINDING_BYTES = 1024


class PrecisionMode(enum.Enum):
    """Builder precision allowance (TensorRT's builder flags)."""

    FP32 = "fp32"
    FP16 = "fp16"
    INT8 = "int8"
    BEST = "best"

    def allowed_datatypes(self) -> List[DataType]:
        return {
            PrecisionMode.FP32: [DataType.FP32],
            PrecisionMode.FP16: [DataType.FP16, DataType.FP32],
            PrecisionMode.INT8: [DataType.INT8, DataType.FP32],
            PrecisionMode.BEST: [DataType.INT8, DataType.FP16, DataType.FP32],
        }[self]


@dataclass
class BuilderConfig:
    """Knobs of one engine build."""

    precision: PrecisionMode = PrecisionMode.FP16
    seed: Optional[int] = None  # None => fresh entropy (realistic default)
    timing_noise: float = 0.08
    timing_repeats: int = 1
    enable_horizontal_merge: bool = True
    calibration_batch: Optional[np.ndarray] = None
    input_name: str = "data"
    #: Workspace (scratch memory) budget for kernel selection; kernels
    #: whose scratch exceeds it are excluded from the auctions.
    workspace_mb: float = 256.0
    #: Optional timing cache: reuse measured tactic timings across
    #: builds, making rebuilds deterministic (see engine.timing_cache).
    timing_cache: Optional["TimingCache"] = None
    #: Load the timing cache from this file instead (ignored when
    #: ``timing_cache`` is set).  A missing/corrupt/cross-device file
    #: degrades to a cold cache with a warning rather than failing the
    #: build — rebuild-on-corruption must always make progress.
    timing_cache_path: Optional[str] = None
    #: Run every optimizer pass under the lint pass-invariant guard:
    #: a pass that renames/reshapes a graph output, alters the input
    #: contract, or introduces new lint errors fails the build with a
    #: named ``V``-rule diagnostic (``PassInvariantViolation``) instead
    #: of miscompiling silently.
    verify_passes: bool = True
    #: Run the whole-program dataflow analyzer (``repro.lint.flow``)
    #: over the finished engine: any error-severity ``D``-rule finding
    #: (use-after-free schedule, double-write, unsound INT8 scale,
    #: working set beyond device RAM) fails the build with
    #: :class:`DataflowViolation` instead of shipping the engine.
    analyze_dataflow: bool = False
    #: Execution provider(s) for the build — the canonical ``provider=``
    #: axis (case-insensitive name, :class:`~repro.runtime.providers
    #: .ExecutionProvider` instance, or a priority-ordered list /
    #: comma string such as ``"cuda,trt"`` for partitioned builds).
    #: ``"trt"`` (the default) builds the classic fused, tactic-selected
    #: engine, byte-identical to builds before this axis existed;
    #: anything else skips fusion and merging, places each layer with
    #: :func:`repro.graph.partition.partition_graph` and builds a
    #: :class:`~repro.graph.partition.PartitionedEngine` in the same
    #: pipeline.
    provider: ProviderSpec = "trt"


# Module-level build counter: distinguishes successive anonymous builds
# even within one process (each gets fresh entropy).  Guarded by its
# sibling lock: concurrent builders (the serving stack's store misses)
# must never mint the same seed.
_BUILD_COUNTER = 0
_BUILD_SEED_LOCK = threading.Lock()


def _next_build_seed() -> int:
    global _BUILD_COUNTER
    with _BUILD_SEED_LOCK:
        _BUILD_COUNTER += 1
        counter = _BUILD_COUNTER
    entropy = np.random.SeedSequence().entropy
    return int((entropy + counter) % (2 ** 63))


def _stored_weight_bytes(layer: Layer, kernel: KernelSpec) -> int:
    """Bytes the plan stores for this layer's weights under ``kernel``.

    Tensor-core kernels keep weights in vector-aligned (ldg8/ldg16)
    layouts; ``pad_weights_to_tile`` kernels additionally pad the
    output-channel dimension to the CTA tile.  This is why an engine
    can be *larger* than the unoptimized model it came from (paper
    Table II: MTCNN 1.9 MB -> 3.8 MB; ResNet-18 AGX engine 2.3x the NX
    engine).
    """
    total = 0
    itemsize = kernel.precision.itemsize
    for key, w in layer.weights.items():
        if key == "kernel" and w.ndim >= 2:
            out_c = w.shape[0]
            rest = int(np.prod(w.shape[1:]))
            if kernel.pad_weights_to_tile:
                out_c = math.ceil(out_c / kernel.tile_m) * kernel.tile_m
            if kernel.uses_tensor_cores:
                vec = 16 if kernel.precision is DataType.INT8 else 8
                rest = math.ceil(rest / vec) * vec
            total += out_c * rest * itemsize
        else:
            total += int(w.size) * itemsize
    return total


class EngineBuilder:
    """Builds engines for one target device."""

    def __init__(
        self,
        device: DeviceSpec,
        config: Optional[BuilderConfig] = None,
        catalog: KernelCatalog = DEFAULT_CATALOG,
    ):
        self.device = device
        self.config = config or BuilderConfig()
        self.catalog = catalog

    # ------------------------------------------------------------------
    def build(
        self, network: Graph, provider: Optional[ProviderSpec] = None
    ) -> Engine:
        """Run the five-step pipeline and return a compiled engine.

        ``provider`` overrides ``config.provider`` for this build.  TRT
        alone gets the classic fused, tactic-auctioned engine.  Any
        other provider (or priority list) skips fusion and merging,
        places every layer with :func:`~repro.graph.partition
        .partition_graph` after quantization planning, and returns a
        :class:`~repro.graph.partition.PartitionedEngine`.
        """
        cfg = self.config
        providers = resolve_providers(
            provider if provider is not None else cfg.provider
        )
        partitioned = providers != (TRT_PROVIDER,)
        seed = cfg.seed if cfg.seed is not None else _next_build_seed()
        rng = np.random.default_rng(seed)
        timing_cache = cfg.timing_cache
        if timing_cache is None and cfg.timing_cache_path is not None:
            timing_cache = TimingCache.load_or_cold(
                cfg.timing_cache_path, self.device
            )
        selector = TacticSelector(
            self.device,
            clock_mhz=self.device.max_gpu_clock_mhz,  # builds run at max clock
            rng=rng,
            timing_noise=cfg.timing_noise,
            timing_repeats=cfg.timing_repeats,
            timing_cache=timing_cache,
            workspace_limit_bytes=int(cfg.workspace_mb * 1024 * 1024),
        )
        allowed = cfg.precision.allowed_datatypes()
        act_dtype = (
            DataType.FP16
            if cfg.precision is not PrecisionMode.FP32
            else DataType.FP32
        )

        graph = network.copy()
        graph.name = f"{network.name}::engine"
        reports: List[PassReport] = []
        guard = PassInvariantGuard() if cfg.verify_passes else None

        def run_pass(pass_fn) -> PassReport:
            if guard is not None:
                report = guard.run(graph, pass_fn)
            else:
                report = pass_fn(graph)
            if BUS.active:
                BUS.emit(
                    SpanKind.BUILD_PASS,
                    report.pass_name,
                    changed=report.changed,
                    details=list(report.details),
                    network=network.name,
                    device=self.device.name,
                )
            return report

        # Step 1: dead-layer removal.
        reports.append(run_pass(remove_dead_layers))

        # Steps 2-3: vertical fusion, then horizontal merging decided by
        # noisy timing.  A partitioned engine stays per-op: a fused
        # super-layer cannot straddle a provider boundary.
        if not partitioned:
            reports.append(run_pass(fuse_vertically))
            if cfg.enable_horizontal_merge:
                decider = self._make_merge_decider(
                    selector, act_dtype, allowed
                )
                reports.append(
                    run_pass(lambda g: merge_horizontally(g, decide=decider))
                )

        # Step 4: quantization planning (+ calibration when supplied).
        calibration: Optional[CalibrationCache] = None
        if cfg.calibration_batch is not None and DataType.INT8 in allowed:
            calibration = calibrate_int8(
                graph, cfg.calibration_batch, cfg.input_name
            )
        quant = plan_quantization(graph, allowed, calibration)

        # Step 5: provider placement (partitioned builds only), then
        # tactic selection / kernel mapping.
        shapes = infer_shapes(graph)
        order = graph.toposort()
        plan: Optional[PartitionPlan] = None
        placed: Dict[str, ExecutionProvider] = {}
        transfers: Dict[str, List[TransferSpec]] = {}
        if partitioned:
            plan = partition_graph(
                graph,
                providers,
                {l.name: quant.precisions_for(l) for l in order},
                {
                    l.name: layer_workload(l, shapes, act_dtype).category
                    for l in order
                },
                shapes,
                act_dtype,
            )
            by_name = {p.name: p for p in providers}
            placed = {
                name: by_name[p] for name, p in plan.assignments.items()
            }
            for spec in plan.transfers:
                transfers.setdefault(spec.dst_layer, []).append(spec)

        bindings: List[LayerBinding] = []
        math_config = MathConfig(default=LayerMath())
        build_time_us = 0.0
        for layer in order:
            # A cross-provider copy goes in before its consumer.
            for spec in transfers.get(layer.name, ()):
                bindings.append(transfer_binding(spec))
            runner = placed.get(layer.name, TRT_PROVIDER)
            workload = layer_workload(layer, shapes, act_dtype)
            if workload.category == "detection":
                kernels = (
                    list(self.catalog.detection_sequence())
                    if runner.tactic_search
                    else runner.kernel_sequence_for("detection")
                )
                bindings.append(
                    LayerBinding(
                        layer_name=layer.name,
                        kernels=kernels,
                        workload=workload,
                        tactic=None,
                        provider=runner.name,
                    )
                )
                continue
            menu = quant.precisions_for(layer)
            tactic: Optional[TacticChoice] = None
            if runner.tactic_search:
                tactic = selector.choose(
                    layer.name, workload, menu, self.catalog
                )
                # Only *fresh* measurement runs charge auction time; a
                # timing-cache hit costs the hash-probe epsilon.  This
                # is the contract timing_cache.py documents (warm
                # rebuilds are much faster).
                cached = tactic.candidates_timed - tactic.candidates_measured
                build_time_us += (
                    tactic.measured_us * tactic.candidates_measured
                    + TIMING_CACHE_LOOKUP_US * cached
                )
                kernel = tactic.kernel
                layer_math = self._layer_math(layer, tactic, calibration)
            else:
                # Providers without tactic search bind their fixed
                # per-category kernel at no auction cost.
                preferred = next(p for p in menu if p is not DataType.INT8)
                kernel = runner.kernel_for(workload.category, preferred)
                layer_math = LayerMath(
                    precision=kernel.precision, split_k=kernel.split_k
                )
            layer.precision = kernel.precision
            math_config.per_layer[layer.name] = layer_math
            # Re-price the workload now that the layer's stored
            # precision is known (weight traffic shrinks under FP16/
            # INT8); keeps runtime costs consistent with reloaded plans.
            workload = layer_workload(layer, shapes, act_dtype)
            bindings.append(
                LayerBinding(
                    layer_name=layer.name,
                    kernels=[kernel],
                    workload=workload,
                    tactic=tactic,
                    provider=runner.name,
                )
            )

        weight_chunks = self._weight_chunks(graph, bindings)
        fields = dict(
            source_network=network.name,
            device=self.device,
            graph=graph,
            bindings=bindings,
            math_config=math_config,
            size_bytes=(
                sum(weight_chunks)
                + PLAN_FIXED_OVERHEAD_BYTES
                + PLAN_PER_BINDING_BYTES * len(bindings)
            ),
            weight_chunks=weight_chunks,
            input_name=cfg.input_name,
            build_seed=seed,
            precision_mode=cfg.precision,
            pass_reports=reports,
            build_time_us=build_time_us,
        )
        engine: Engine
        if plan is None:
            engine = Engine(
                name=f"{network.name}@{self.device.name}#seed{seed}",
                **fields,
            )
        else:
            key = canonical_provider_key(providers)
            engine = PartitionedEngine(
                name=f"{network.name}@{self.device.name}+{key}#seed{seed}",
                partition=plan,
                **fields,
            )
        if cfg.analyze_dataflow:
            self._analyze(engine)
        return engine

    def _analyze(self, engine: Engine) -> None:
        """``analyze_dataflow`` gate: certify the finished engine with
        the D-family dataflow rules; errors abort the build."""
        from repro.lint.flow import DataflowViolation, lint_flow

        report = lint_flow(engine)
        if BUS.active:
            BUS.emit(
                SpanKind.ANALYZE,
                engine.name,
                findings=len(report),
                errors=len(report.errors),
                ok=report.ok,
                rules=report.rule_ids(),
            )
        if not report.ok:
            raise DataflowViolation(report)

    # ------------------------------------------------------------------
    def _make_merge_decider(
        self,
        selector: TacticSelector,
        act_dtype: DataType,
        allowed: Sequence[DataType],
    ):
        def decide(graph: Graph, group: Sequence[Layer]) -> bool:
            shapes = infer_shapes(graph)
            members = [layer_workload(l, shapes, act_dtype) for l in group]
            first = members[0]
            merged = LayerWorkload(
                flops=sum(w.flops for w in members),
                bytes_in=first.bytes_in,  # shared input read once
                bytes_w=sum(w.bytes_w for w in members),
                bytes_out=sum(w.bytes_out for w in members),
                gemm_m=sum(w.gemm_m for w in members),
                gemm_n=first.gemm_n,
                gemm_k=first.gemm_k,
                elements_out=sum(w.elements_out for w in members),
                category="conv",
            )
            return selector.merge_is_faster(
                members, merged, allowed, self.catalog
            )

        return decide

    @staticmethod
    def _layer_math(
        layer: Layer,
        tactic: TacticChoice,
        calibration: Optional[CalibrationCache],
    ) -> LayerMath:
        kernel = tactic.kernel
        if kernel.precision is DataType.INT8:
            if calibration is None or not calibration.covers(layer.name):
                raise RuntimeError(
                    f"INT8 tactic chosen for uncalibrated layer {layer.name!r}"
                )
            return LayerMath(
                precision=DataType.INT8,
                split_k=kernel.split_k,
                int8_scale_in=calibration.input_scales[layer.name],
                int8_scale_w=calibration.weight_scales[layer.name],
            )
        return LayerMath(precision=kernel.precision, split_k=kernel.split_k)

    @staticmethod
    def _weight_chunks(
        graph: Graph, bindings: List[LayerBinding]
    ) -> List[int]:
        """Per-layer stored weight sizes (one HtoD chunk each).

        A single-kernel binding stores its layer's weights in the bound
        kernel's layout (lint ``P003`` re-derives the same rule); a
        multi-kernel sequence stores them as they are.
        """
        by_name: Dict[str, LayerBinding] = {
            b.layer_name: b for b in bindings if b.transfer is None
        }
        chunks = []
        for layer in graph.layers:
            if not layer.weights:
                continue
            binding = by_name.get(layer.name)
            if binding is not None and len(binding.kernels) == 1:
                chunks.append(_stored_weight_bytes(layer, binding.kernels[0]))
            else:
                chunks.append(layer.weight_bytes())
        return chunks
