"""The two engine build pipelines as they were before they became one,
kept as the oracle.

:class:`ReferenceEngineBuilder` runs the classic fused, tactic-auctioned
pipeline when the provider list is TRT alone and hands every other
list to :func:`build_partitioned_engine`, a second copy of the pipeline
that skips fusion and merging, places each layer with
:func:`~repro.graph.partition.partition_graph` and binds per-provider
kernels.  Each pipeline has its own weight-chunk rule: the classic one
sizes a layer by its tactic's kernel, the partitioned one by the kernel
of any single-kernel binding.

The merge decider, the layer math and the dataflow gate did not change
when the pipelines were folded, so they are inherited from the live
:class:`~repro.engine.builder.EngineBuilder`.  Tactic auctions and
merge decisions run on :class:`ReferenceTacticSelector`, which times
candidates one at a time with the scalar cost formula of
:mod:`tests.hardware.reference_timeline`, as the selector did before
auctions were priced through the cost table.  ``tests.engine
.build_oracle`` compares the two builders.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.builder import (
    PLAN_FIXED_OVERHEAD_BYTES,
    PLAN_PER_BINDING_BYTES,
    BuilderConfig,
    EngineBuilder,
    PrecisionMode,
    _next_build_seed,
    _stored_weight_bytes,
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
from repro.graph.ir import DataType, Graph
from repro.graph.partition import (
    PartitionedEngine,
    partition_graph,
    transfer_binding,
)
from repro.graph.shapes import infer_shapes
from repro.hardware.specs import DeviceSpec
from repro.hardware.workload import LayerWorkload, layer_workload
from repro.lint.invariants import PassInvariantGuard
from repro.runtime.math_config import LayerMath, MathConfig
from repro.runtime.providers import (
    TRT_PROVIDER,
    ProviderSpec,
    TransferSpec,
    canonical_provider_key,
    resolve_providers,
)
from repro.telemetry.bus import BUS, SpanKind

from tests.hardware.reference_timeline import kernel_cost, left_to_right_sum


class ReferenceTacticSelector(TacticSelector):
    """:class:`TacticSelector` as it timed candidates before auctions
    were priced through the cost table: one scalar cost and one
    measurement per candidate, and the merge decision's split side
    added left to right."""

    def measure_kernel(
        self, kernel: KernelSpec, workload: LayerWorkload
    ) -> Tuple[float, float]:
        """(noisy measured time, true model time) in microseconds."""
        true_us = kernel_cost(
            self.device, kernel, workload, self.clock_mhz
        ).total_us
        if self.timing_cache is not None:
            cached = self.timing_cache.lookup(kernel.name, workload)
            if cached is not None:
                self.cache_hits += 1
                return cached, true_us
        self.fresh_measurements += 1
        samples = true_us * (
            1.0
            + self.timing_noise
            * self._rng.standard_normal(self.timing_repeats)
        )
        measured = float(np.clip(samples, true_us * 0.5, None).mean())
        if self.timing_cache is not None:
            self.timing_cache.store(kernel.name, workload, measured)
        return measured, true_us

    def choose(
        self,
        layer_name: str,
        workload: LayerWorkload,
        precisions: Sequence[DataType],
        catalog: KernelCatalog,
    ) -> TacticChoice:
        candidates = catalog.candidates(
            workload.category, workload.gemm_k, precisions
        )
        if self.workspace_limit_bytes is not None:
            fitting = [
                k for k in candidates
                if k.workspace_bytes(workload) <= self.workspace_limit_bytes
            ]
            candidates = fitting or [
                min(candidates,
                    key=lambda k: k.workspace_bytes(workload))
            ] if candidates else []
        if not candidates:
            raise LookupError(
                f"no kernel in catalog for category {workload.category!r} "
                f"(layer {layer_name!r})"
            )
        best: Optional[TacticChoice] = None
        fresh_before = self.fresh_measurements
        for kernel in candidates:
            measured, true_us = self.measure_kernel(kernel, workload)
            if best is None or measured < best.measured_us:
                best = TacticChoice(
                    layer_name=layer_name,
                    kernel=kernel,
                    measured_us=measured,
                    true_us=true_us,
                    candidates_timed=len(candidates),
                    candidates_measured=0,  # patched below
                )
        assert best is not None
        best = dataclasses.replace(
            best,
            candidates_measured=self.fresh_measurements - fresh_before,
        )
        if BUS.active:
            BUS.emit(
                SpanKind.TACTIC_AUCTION,
                layer_name,
                dur_us=best.measured_us,
                kernel=best.kernel.name,
                measured_us=best.measured_us,
                true_us=best.true_us,
                candidates=best.candidates_timed,
            )
        return best

    def merge_is_faster(
        self,
        group_workloads: List[LayerWorkload],
        merged_workload: LayerWorkload,
        precisions: Sequence[DataType],
        catalog: KernelCatalog,
    ) -> bool:
        def best_time(workload: LayerWorkload) -> float:
            cands = catalog.candidates(
                workload.category, workload.gemm_k, precisions
            )
            if not cands:
                return float("inf")
            return min(self.measure_kernel(k, workload)[0] for k in cands)

        merged_time = best_time(merged_workload)
        split_time = left_to_right_sum(best_time(w) for w in group_workloads)
        return merged_time < split_time


class ReferenceEngineBuilder(EngineBuilder):
    """:class:`EngineBuilder` with the classic pipeline and the
    partitioned dispatch it had before the pipelines were folded."""

    def build(
        self, network: Graph, provider: Optional[ProviderSpec] = None
    ) -> Engine:
        cfg = self.config
        providers = resolve_providers(
            provider if provider is not None else cfg.provider
        )
        if providers != (TRT_PROVIDER,):
            return build_partitioned_engine(
                network, self.device, providers, cfg, self.catalog
            )
        seed = cfg.seed if cfg.seed is not None else _next_build_seed()
        rng = np.random.default_rng(seed)
        timing_cache = cfg.timing_cache
        if timing_cache is None and cfg.timing_cache_path is not None:
            timing_cache = TimingCache.load_or_cold(
                cfg.timing_cache_path, self.device
            )
        selector = ReferenceTacticSelector(
            self.device,
            clock_mhz=self.device.max_gpu_clock_mhz,
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

        reports.append(run_pass(remove_dead_layers))
        reports.append(run_pass(fuse_vertically))
        if cfg.enable_horizontal_merge:
            decider = self._make_merge_decider(selector, act_dtype, allowed)
            reports.append(
                run_pass(lambda g: merge_horizontally(g, decide=decider))
            )

        calibration: Optional[CalibrationCache] = None
        if cfg.calibration_batch is not None and DataType.INT8 in allowed:
            calibration = calibrate_int8(
                graph, cfg.calibration_batch, cfg.input_name
            )
        quant = plan_quantization(graph, allowed, calibration)

        shapes = infer_shapes(graph)
        bindings: List[LayerBinding] = []
        math_config = MathConfig(default=LayerMath())
        build_time_us = 0.0
        for layer in graph.toposort():
            workload = layer_workload(layer, shapes, act_dtype)
            if workload.category == "detection":
                kernels = self.catalog.detection_sequence()
                bindings.append(
                    LayerBinding(
                        layer_name=layer.name,
                        kernels=list(kernels),
                        workload=workload,
                        tactic=None,
                    )
                )
                continue
            menu = quant.precisions_for(layer)
            tactic = selector.choose(layer.name, workload, menu, self.catalog)
            cached = tactic.candidates_timed - tactic.candidates_measured
            build_time_us += (
                tactic.measured_us * tactic.candidates_measured
                + TIMING_CACHE_LOOKUP_US * cached
            )
            layer.precision = tactic.kernel.precision
            math_config.per_layer[layer.name] = self._layer_math(
                layer, tactic, calibration
            )
            workload = layer_workload(layer, shapes, act_dtype)
            bindings.append(
                LayerBinding(
                    layer_name=layer.name,
                    kernels=[tactic.kernel],
                    workload=workload,
                    tactic=tactic,
                )
            )

        weight_chunks = self._weight_chunks(graph, bindings)
        size_bytes = (
            sum(weight_chunks)
            + PLAN_FIXED_OVERHEAD_BYTES
            + PLAN_PER_BINDING_BYTES * len(bindings)
        )

        engine = Engine(
            name=f"{network.name}@{self.device.name}#seed{seed}",
            source_network=network.name,
            device=self.device,
            graph=graph,
            bindings=bindings,
            math_config=math_config,
            size_bytes=size_bytes,
            weight_chunks=weight_chunks,
            input_name=cfg.input_name,
            build_seed=seed,
            precision_mode=cfg.precision,
            pass_reports=reports,
            build_time_us=build_time_us,
        )
        if cfg.analyze_dataflow:
            self._analyze(engine)
        return engine

    @staticmethod
    def _weight_chunks(
        graph: Graph, bindings: List[LayerBinding]
    ) -> List[int]:
        """Per-layer stored weight sizes, by the bound tactic's kernel."""
        by_name: Dict[str, LayerBinding] = {
            b.layer_name: b for b in bindings
        }
        chunks = []
        for layer in graph.layers:
            if not layer.weights:
                continue
            binding = by_name.get(layer.name)
            if binding is None or binding.tactic is None:
                chunks.append(layer.weight_bytes())
            else:
                chunks.append(_stored_weight_bytes(layer, binding.tactic.kernel))
        return chunks


def _partition_weight_chunks(
    graph: Graph, bindings: List[LayerBinding]
) -> List[int]:
    """Per-layer stored weight bytes: any single-kernel binding stores
    its weights in the bound kernel's layout."""
    by_name = {b.layer_name: b for b in bindings if b.transfer is None}
    chunks: List[int] = []
    for layer in graph.layers:
        if not layer.weights:
            continue
        binding = by_name.get(layer.name)
        if binding is not None and len(binding.kernels) == 1:
            chunks.append(_stored_weight_bytes(layer, binding.kernels[0]))
        else:
            chunks.append(layer.weight_bytes())
    return chunks


def build_partitioned_engine(
    network: Graph,
    device: DeviceSpec,
    providers: ProviderSpec,
    config: Optional[BuilderConfig] = None,
    catalog: KernelCatalog = DEFAULT_CATALOG,
) -> PartitionedEngine:
    """Build an engine whose layers are partitioned across providers:
    dead-layer removal, quantization planning, placement, then tactic
    auctions for TRT-placed layers and fixed kernels for the rest."""
    provider_tuple = resolve_providers(providers)
    provider_key = canonical_provider_key(provider_tuple)
    cfg = config or BuilderConfig()
    seed = cfg.seed if cfg.seed is not None else _next_build_seed()
    rng = np.random.default_rng(seed)
    timing_cache = cfg.timing_cache
    if timing_cache is None and cfg.timing_cache_path is not None:
        timing_cache = TimingCache.load_or_cold(cfg.timing_cache_path, device)
    selector = ReferenceTacticSelector(
        device,
        clock_mhz=device.max_gpu_clock_mhz,
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
    if guard is not None:
        report = guard.run(graph, remove_dead_layers)
    else:
        report = remove_dead_layers(graph)
    reports.append(report)
    if BUS.active:
        BUS.emit(
            SpanKind.BUILD_PASS,
            report.pass_name,
            changed=report.changed,
            details=list(report.details),
            network=network.name,
            device=device.name,
        )

    calibration: Optional[CalibrationCache] = None
    if cfg.calibration_batch is not None and DataType.INT8 in allowed:
        calibration = calibrate_int8(
            graph, cfg.calibration_batch, cfg.input_name
        )
    quant = plan_quantization(graph, allowed, calibration)

    shapes = infer_shapes(graph)
    menus: Dict[str, List[DataType]] = {}
    categories: Dict[str, str] = {}
    for layer in graph.toposort():
        menus[layer.name] = list(quant.precisions_for(layer))
        categories[layer.name] = layer_workload(
            layer, shapes, act_dtype
        ).category

    plan = partition_graph(
        graph, provider_tuple, menus, categories, shapes, act_dtype
    )
    by_name = {p.name: p for p in provider_tuple}

    bindings: List[LayerBinding] = []
    math_config = MathConfig(default=LayerMath())
    build_time_us = 0.0
    pending: Dict[str, List[TransferSpec]] = {}
    for spec in plan.transfers:
        pending.setdefault(spec.dst_layer, []).append(spec)

    for layer in graph.toposort():
        for spec in pending.get(layer.name, ()):
            bindings.append(transfer_binding(spec))
        provider = by_name[plan.assignments[layer.name]]
        workload = layer_workload(layer, shapes, act_dtype)
        if workload.category == "detection":
            if provider.tactic_search:
                kernels = list(catalog.detection_sequence())
            else:
                kernels = provider.kernel_sequence_for("detection")
            bindings.append(
                LayerBinding(
                    layer_name=layer.name,
                    kernels=kernels,
                    workload=workload,
                    tactic=None,
                    provider=provider.name,
                )
            )
            continue
        if provider.tactic_search:
            menu = menus[layer.name]
            tactic = selector.choose(layer.name, workload, menu, catalog)
            cached = tactic.candidates_timed - tactic.candidates_measured
            build_time_us += (
                tactic.measured_us * tactic.candidates_measured
                + TIMING_CACHE_LOOKUP_US * cached
            )
            layer.precision = tactic.kernel.precision
            math_config.per_layer[layer.name] = EngineBuilder._layer_math(
                layer, tactic, calibration
            )
            kernel = tactic.kernel
        else:
            tactic = None
            preferred = next(
                p for p in menus[layer.name] if p is not DataType.INT8
            )
            kernel = provider.kernel_for(workload.category, preferred)
            layer.precision = kernel.precision
            math_config.per_layer[layer.name] = LayerMath(
                precision=kernel.precision, split_k=kernel.split_k
            )
        workload = layer_workload(layer, shapes, act_dtype)
        bindings.append(
            LayerBinding(
                layer_name=layer.name,
                kernels=[kernel],
                workload=workload,
                tactic=tactic,
                provider=provider.name,
            )
        )

    weight_chunks = _partition_weight_chunks(graph, bindings)
    size_bytes = (
        sum(weight_chunks)
        + PLAN_FIXED_OVERHEAD_BYTES
        + PLAN_PER_BINDING_BYTES * len(bindings)
    )

    engine = PartitionedEngine(
        name=f"{network.name}@{device.name}+{provider_key}#seed{seed}",
        source_network=network.name,
        device=device,
        graph=graph,
        bindings=bindings,
        math_config=math_config,
        size_bytes=size_bytes,
        weight_chunks=weight_chunks,
        input_name=cfg.input_name,
        build_seed=seed,
        precision_mode=cfg.precision,
        pass_reports=reports,
        build_time_us=build_time_us,
        partition=plan,
    )
    if cfg.analyze_dataflow:
        EngineBuilder(device, cfg, catalog)._analyze(engine)
    return engine
