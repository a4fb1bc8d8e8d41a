"""Per-op graph partitioning across execution providers.

Mirrors ONNX Runtime's placement pass: walk the graph in topological
order, assign each layer to the **highest-priority provider that
supports it** (priority = the order the caller lists providers in), and
insert an explicit cross-provider *transfer node* on every edge whose
producer and consumer landed on different providers.  Transfers are
billed as device-to-device memcpys against the Eq. 1 bandwidth model —
the simulator's analogue of ORT's ``MemcpyToHost``/``MemcpyFromHost``
nodes, and the reason a badly split graph can be slower than a
single-provider one.

The result is a :class:`PartitionedEngine` — a plain
:class:`~repro.engine.engine.Engine` subclass, so every downstream
consumer (``ExecutionContext``, ``simulate_inference``,
``InferenceSupervisor``, the fleet, the store, the lint rules) handles
it through the same API as a single-provider engine.  Transfer nodes
appear as extra :class:`~repro.engine.engine.LayerBinding` entries
carrying a :class:`~repro.runtime.providers.TransferSpec`; the numeric
executor ignores them (they move bytes, not values) while the timeline
prices them.

This module holds the placement step and the engine type; the build
itself is :meth:`repro.engine.builder.EngineBuilder.build`, the one
pipeline for every provider list.  For any list other than TRT alone it
skips fusion and merging (a fused super-layer cannot straddle a
provider boundary, so partitioned builds are **per-op by
construction**), calls :func:`partition_graph` after quantization
planning, puts each :func:`transfer_binding` before its consumer, and
returns a :class:`PartitionedEngine`.  TRT-alone builds never call into
this module and stay byte-identical to the classic pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph.ir import DataType, Graph
from repro.hardware.workload import LayerWorkload
from repro.runtime.providers import (
    ExecutionProvider,
    ProviderError,
    TransferSpec,
    transfer_kernel,
)

from repro.engine.engine import Engine, LayerBinding


@dataclass(frozen=True)
class PartitionPlan:
    """Placement decision for one graph: who runs what, and the
    transfers the placement implies."""

    #: Provider names in the priority order the partition used.
    providers: Tuple[str, ...]
    #: layer name -> provider name, for every compute layer.
    assignments: Dict[str, str]
    #: Cross-provider edges, in insertion (schedule) order.
    transfers: Tuple[TransferSpec, ...]

    @property
    def providers_used(self) -> Tuple[str, ...]:
        """Providers that actually received at least one layer, in
        priority order."""
        used = set(self.assignments.values())
        return tuple(name for name in self.providers if name in used)

    def layers_on(self, provider_name: str) -> List[str]:
        return [
            name
            for name, assigned in self.assignments.items()
            if assigned == provider_name
        ]


@dataclass
class PartitionedEngine(Engine):
    """An engine whose layers span multiple execution providers.

    Behaves exactly like :class:`~repro.engine.engine.Engine` (same
    fields, same execution-context API); the extra ``partition`` field
    records the placement, and transfer bindings are distinguishable
    via ``binding.transfer is not None``.
    """

    partition: Optional[PartitionPlan] = None

    @property
    def providers_used(self) -> Tuple[str, ...]:
        return self.partition.providers_used if self.partition else ()

    def transfer_bindings(self) -> List[LayerBinding]:
        return [b for b in self.bindings if b.transfer is not None]

    def transfer_bytes(self) -> int:
        """Total cross-provider traffic per batch-1 inference."""
        return sum(
            b.transfer.bytes for b in self.bindings if b.transfer is not None
        )


def _wants_int8(menu: List[DataType]) -> bool:
    """A layer is a *quantized op* when the quantization plan kept INT8
    on its menu (calibrated, not precision-sensitive)."""
    return DataType.INT8 in menu


def partition_graph(
    graph: Graph,
    providers: Tuple[ExecutionProvider, ...],
    menus: Dict[str, List[DataType]],
    categories: Dict[str, str],
    shapes: Dict[str, Tuple[int, ...]],
    act_dtype: DataType,
) -> PartitionPlan:
    """Assign every layer to the first provider that supports it and
    derive the implied cross-provider transfers.

    ``menus`` and ``categories`` map layer names to their quantization
    menus and workload categories; ``shapes`` prices the transfers
    (tensor volume x activation itemsize, batch 1 — the timeline scales
    them with the micro-batch like any activation traffic).
    """
    assignments: Dict[str, str] = {}
    transfers: List[TransferSpec] = []
    seen_transfers: set = set()

    for layer in graph.toposort():
        menu = menus[layer.name]
        category = categories[layer.name]
        required = (
            DataType.INT8 if _wants_int8(menu) else DataType.FP32
        )
        chosen: Optional[ExecutionProvider] = None
        for provider in providers:
            if provider.supports_layer(category, required):
                chosen = provider
                break
        if chosen is None:
            names = "+".join(p.name for p in providers)
            raise ProviderError(
                f"no provider in [{names}] supports layer "
                f"{layer.name!r} ({category} at {required.value}); "
                "add TrtProvider (quantized ops) or CpuProvider "
                "(universal fallback) to the priority list"
            )
        assignments[layer.name] = chosen.name

        for tensor in layer.inputs:
            if tensor in graph.input_specs:
                continue  # graph inputs arrive via the input HtoD memcpy
            producer = graph.producer_of(tensor)
            if producer is None:
                continue
            src = assignments[producer.name]
            if src == chosen.name:
                continue
            dedup_key = (tensor, chosen.name)
            if dedup_key in seen_transfers:
                continue  # one copy serves every consumer on that provider
            seen_transfers.add(dedup_key)
            volume = int(np.prod(shapes[tensor])) if shapes[tensor] else 1
            transfers.append(
                TransferSpec(
                    tensor=tensor,
                    src_layer=producer.name,
                    dst_layer=layer.name,
                    src_provider=src,
                    dst_provider=chosen.name,
                    bytes=volume * act_dtype.itemsize,
                    elements=volume,
                )
            )

    return PartitionPlan(
        providers=tuple(p.name for p in providers),
        assignments=assignments,
        transfers=tuple(transfers),
    )


def transfer_binding(spec: TransferSpec) -> LayerBinding:
    """The timeline binding for one cross-provider transfer.

    Shared with the plan loader so serialized partitioned engines
    reconstruct byte-identical schedules."""
    workload = LayerWorkload(
        flops=0.0,
        bytes_in=spec.bytes,
        bytes_w=0,
        bytes_out=spec.bytes,
        gemm_m=1,
        gemm_n=1,
        gemm_k=0,
        elements_out=spec.elements,
        category="copy",
    )
    return LayerBinding(
        layer_name=spec.label,
        kernels=[transfer_kernel()],
        workload=workload,
        tactic=None,
        provider=spec.dst_provider,
        transfer=spec,
    )


__all__ = [
    "PartitionPlan",
    "PartitionedEngine",
    "partition_graph",
    "transfer_binding",
]
