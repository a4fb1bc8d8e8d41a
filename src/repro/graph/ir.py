"""Core IR data structures: tensors, layers, and the network graph.

The design mirrors the internal representation used by inference engines
such as TensorRT: a network is a DAG whose nodes are *layers* and whose
edges are *named tensors*.  Layers carry their hyper-parameters in
``attrs`` and their learned parameters in ``weights`` (numpy arrays).

A deliberately small, closed set of layer kinds (:class:`LayerKind`)
keeps the optimizer passes exhaustive: every pass can reason about every
kind it may encounter.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np


class GraphError(ValueError):
    """Raised for malformed graphs: dangling tensors, cycles, duplicates."""


class DataType(enum.Enum):
    """Numeric precision of a tensor or of a layer's computation."""

    FP32 = "fp32"
    FP16 = "fp16"
    INT8 = "int8"

    @property
    def itemsize(self) -> int:
        """Bytes per element for this precision."""
        return {DataType.FP32: 4, DataType.FP16: 2, DataType.INT8: 1}[self]

    @property
    def numpy_dtype(self) -> np.dtype:
        """The numpy dtype used to *store* values of this precision.

        INT8 weights/activations are stored dequantized as float32 along
        with their scales, matching how a simulator (rather than real
        silicon) handles quantized math.
        """
        return {
            DataType.FP32: np.dtype(np.float32),
            DataType.FP16: np.dtype(np.float16),
            DataType.INT8: np.dtype(np.float32),
        }[self]


class LayerKind(enum.Enum):
    """Closed set of layer operations the IR supports.

    This covers everything needed by the paper's 13 evaluated models
    (Table II): CNN classification, detection, and segmentation nets from
    Caffe, TensorFlow, Darknet and PyTorch frontends.
    """

    INPUT = "input"
    CONVOLUTION = "convolution"
    DECONVOLUTION = "deconvolution"
    DEPTHWISE_CONVOLUTION = "depthwise_convolution"
    FULLY_CONNECTED = "fully_connected"
    POOLING = "pooling"  # attrs: pool in {max, avg}, kernel, stride, pad
    ACTIVATION = "activation"  # attrs: function in {relu, sigmoid, tanh, leaky_relu}
    BATCHNORM = "batchnorm"
    SCALE = "scale"  # per-channel affine (Caffe Scale layer)
    LRN = "lrn"
    SOFTMAX = "softmax"
    CONCAT = "concat"
    ELEMENTWISE = "elementwise"  # attrs: op in {add, mul, max}
    FLATTEN = "flatten"
    DROPOUT = "dropout"  # inference no-op; removed by dead-layer pass
    IDENTITY = "identity"
    UPSAMPLE = "upsample"  # nearest-neighbour, attrs: factor
    PERMUTE = "permute"
    RESHAPE = "reshape"
    DETECTION_OUTPUT = "detection_output"  # SSD-style box decoding + NMS
    REGION = "region"  # YOLO-style detection head
    # Fused kinds are produced only by optimizer passes, never by frontends.
    FUSED_CONV_BLOCK = "fused_conv_block"  # conv (+bn/scale) (+activation)
    FUSED_FC_BLOCK = "fused_fc_block"  # fc (+activation)
    MERGED_CONV = "merged_conv"  # horizontally merged sibling convs


#: Kinds that perform no computation at inference time and are removed by
#: the dead-layer-removal pass (step 1 of the paper's Figure 2).
INERT_KINDS = frozenset({LayerKind.DROPOUT, LayerKind.IDENTITY})

#: Kinds that carry learned parameters.
WEIGHTED_KINDS = frozenset(
    {
        LayerKind.CONVOLUTION,
        LayerKind.DECONVOLUTION,
        LayerKind.DEPTHWISE_CONVOLUTION,
        LayerKind.FULLY_CONNECTED,
        LayerKind.BATCHNORM,
        LayerKind.SCALE,
        LayerKind.FUSED_CONV_BLOCK,
        LayerKind.FUSED_FC_BLOCK,
        LayerKind.MERGED_CONV,
    }
)


@dataclass(frozen=True)
class TensorSpec:
    """Shape/precision signature of a named tensor.

    ``shape`` excludes the batch dimension: ``(C, H, W)`` for feature
    maps, ``(C,)`` for flattened vectors.
    """

    name: str
    shape: Tuple[int, ...]
    dtype: DataType = DataType.FP32

    @property
    def volume(self) -> int:
        """Number of elements (excluding batch)."""
        return int(np.prod(self.shape)) if self.shape else 1

    @property
    def nbytes(self) -> int:
        """Storage size in bytes at this tensor's precision."""
        return self.volume * self.dtype.itemsize


@dataclass
class Layer:
    """A single operation node in the network graph."""

    name: str
    kind: LayerKind
    inputs: List[str] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    attrs: Dict[str, object] = field(default_factory=dict)
    weights: Dict[str, np.ndarray] = field(default_factory=dict)
    precision: DataType = DataType.FP32

    def weight_volume(self) -> int:
        """Total number of learned parameters in this layer."""
        return sum(int(w.size) for w in self.weights.values())

    def weight_bytes(self) -> int:
        """Bytes occupied by this layer's weights at its precision."""
        return self.weight_volume() * self.precision.itemsize

    def copy(self) -> "Layer":
        """Deep-enough copy: attrs dict and weights dict are fresh, the
        numpy arrays themselves are shared (they are treated as
        immutable once attached to a layer)."""
        return Layer(
            name=self.name,
            kind=self.kind,
            inputs=list(self.inputs),
            outputs=list(self.outputs),
            attrs=dict(self.attrs),
            weights=dict(self.weights),
            precision=self.precision,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Layer({self.name!r}, {self.kind.value}, "
            f"in={self.inputs}, out={self.outputs})"
        )


class Graph:
    """A neural network as a DAG of :class:`Layer` nodes.

    Layers are stored in insertion order; :meth:`toposort` provides a
    dependency-respecting order regardless of insertion order.  Tensor
    names are the edges: a layer consumes the tensors in ``inputs`` and
    defines the tensors in ``outputs``.
    """

    def __init__(self, name: str, input_specs: Iterable[TensorSpec]):
        self.name = name
        self.input_specs: Dict[str, TensorSpec] = {}
        self._layers: Dict[str, Layer] = {}
        self.output_names: List[str] = []
        for spec in input_specs:
            if spec.name in self.input_specs:
                raise GraphError(f"duplicate graph input {spec.name!r}")
            self.input_specs[spec.name] = spec

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_layer(self, layer: Layer) -> Layer:
        """Insert ``layer``; its name and output tensors must be fresh."""
        if layer.name in self._layers:
            raise GraphError(f"duplicate layer name {layer.name!r}")
        if not layer.outputs:
            raise GraphError(f"layer {layer.name!r} defines no outputs")
        defined = self._defined_tensors()
        for out in layer.outputs:
            if out in defined or out in self.input_specs:
                raise GraphError(
                    f"tensor {out!r} defined twice (layer {layer.name!r})"
                )
            defined.add(out)
        self._layers[layer.name] = layer
        return layer

    def mark_output(self, tensor_name: str) -> None:
        """Declare a graph-level output tensor."""
        if tensor_name not in self.output_names:
            self.output_names.append(tensor_name)

    def remove_layer(self, name: str) -> Layer:
        """Remove a layer by name and return it."""
        try:
            return self._layers.pop(name)
        except KeyError:
            raise GraphError(f"no layer named {name!r}") from None

    def replace_layers(self, removed: Iterable[str], replacement: Layer) -> None:
        """Atomically swap a set of layers for a single fused layer.

        Used by optimizer passes; the replacement must consume/produce
        tensors such that the graph stays connected (checked by
        :meth:`validate`, which callers are expected to run).
        """
        for name in removed:
            self.remove_layer(name)
        self.add_layer(replacement)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def layers(self) -> List[Layer]:
        """Layers in insertion order."""
        return list(self._layers.values())

    def layer(self, name: str) -> Layer:
        """Look up a layer by name."""
        try:
            return self._layers[name]
        except KeyError:
            raise GraphError(f"no layer named {name!r}") from None

    def has_layer(self, name: str) -> bool:
        return name in self._layers

    def __len__(self) -> int:
        return len(self._layers)

    def __iter__(self) -> Iterator[Layer]:
        return iter(self._layers.values())

    def _defined_tensors(self) -> set:
        defined = set(self.input_specs)
        for layer in self._layers.values():
            defined.update(layer.outputs)
        return defined

    def producer_of(self, tensor_name: str) -> Optional[Layer]:
        """The layer defining ``tensor_name`` (None for graph inputs)."""
        for layer in self._layers.values():
            if tensor_name in layer.outputs:
                return layer
        return None

    def consumers_of(self, tensor_name: str) -> List[Layer]:
        """All layers that read ``tensor_name``."""
        return [
            layer
            for layer in self._layers.values()
            if tensor_name in layer.inputs
        ]

    def count_kind(self, kind: LayerKind) -> int:
        """Number of layers of the given kind."""
        return sum(1 for layer in self._layers.values() if layer.kind is kind)

    def weight_bytes(self, precision: Optional[DataType] = None) -> int:
        """Total weight storage, optionally re-priced at ``precision``."""
        total = 0
        for layer in self._layers.values():
            itemsize = (precision or layer.precision).itemsize
            total += layer.weight_volume() * itemsize
        return total

    def weight_volume(self) -> int:
        """Total learned-parameter count across all layers."""
        return sum(layer.weight_volume() for layer in self._layers.values())

    # ------------------------------------------------------------------
    # ordering and validation
    # ------------------------------------------------------------------
    def toposort(self) -> List[Layer]:
        """Layers in dependency order; raises :class:`GraphError` on
        cycles or references to undefined tensors.

        The order is that of repeated insertion-order sweeps which take
        every layer whose inputs are ready, the sweep's own earlier
        picks included: layers sorted by (sweep, insertion index).
        """
        ordered, blocked = self.schedule()
        if blocked:
            produced = set(self.input_specs)
            for layer in ordered:
                produced.update(layer.outputs)
            missing = {
                t for layer in blocked for t in layer.inputs
                if t not in produced
            }
            raise GraphError(
                f"graph {self.name!r} has a cycle or undefined tensors: "
                f"{sorted(missing)}"
            )
        return ordered

    def schedule(
        self, ignore_undefined: bool = False
    ) -> Tuple[List[Layer], List[Layer]]:
        """``(ordered, blocked)``: the :meth:`toposort` order of every
        layer that can run, and the layers that never can, in insertion
        order.  With ``ignore_undefined`` a tensor that nothing defines
        does not block its consumers, so ``blocked`` holds exactly the
        layers on or downstream of a dependency cycle.

        One pass in (sweep, insertion index) order off a heap: a layer
        waits on each distinct input tensor not yet defined, and the
        first producer of a tensor to run releases its waiters.  A
        waiter inserted after that producer joins the producer's sweep,
        one inserted before it the next.  O((V + E) log V).
        """
        layers = list(self._layers.values())
        produced = {t for layer in layers for t in layer.outputs}
        waiting: Dict[str, List[int]] = {}
        blockers = [0] * len(layers)
        sweep = [0] * len(layers)
        heap: List[Tuple[int, int]] = []
        for index, layer in enumerate(layers):
            pending = set(layer.inputs).difference(self.input_specs)
            if ignore_undefined:
                pending &= produced
            for t in pending:
                waiting.setdefault(t, []).append(index)
            blockers[index] = len(pending)
            if not pending:
                heap.append((0, index))  # ascending: already a heap
        ordered: List[Layer] = []
        while heap:
            current, index = heapq.heappop(heap)
            ordered.append(layers[index])
            for out in layers[index].outputs:
                for waiter in waiting.pop(out, ()):
                    at = current if waiter > index else current + 1
                    sweep[waiter] = max(sweep[waiter], at)
                    blockers[waiter] -= 1
                    if not blockers[waiter]:
                        heapq.heappush(heap, (sweep[waiter], waiter))
        blocked = [
            layer for layer, count in zip(layers, blockers) if count
        ]
        return ordered, blocked

    def validate(self, allow_dead: bool = False) -> None:
        """Full structural check: acyclic, connected, outputs defined.

        ``allow_dead=True`` permits unconsumed intermediate tensors.
        Frontends use it because freshly imported models legitimately
        contain dead layers (training-only heads); the dead-layer-removal
        pass restores the strict invariant.
        """
        ordered = self.toposort()
        defined = self._defined_tensors()
        for out in self.output_names:
            if out not in defined:
                raise GraphError(f"graph output {out!r} is never defined")
        if not self.output_names:
            raise GraphError(f"graph {self.name!r} declares no outputs")
        if allow_dead:
            return
        consumed = {t for layer in ordered for t in layer.inputs}
        consumed.update(self.output_names)
        for layer in ordered:
            for out in layer.outputs:
                if out not in consumed:
                    raise GraphError(
                        f"tensor {out!r} (layer {layer.name!r}) is dead: "
                        "neither consumed nor a graph output"
                    )

    def copy(self) -> "Graph":
        """Structural deep copy (weight arrays shared, metadata fresh)."""
        dup = Graph(self.name, self.input_specs.values())
        for layer in self._layers.values():
            dup.add_layer(layer.copy())
        dup.output_names = list(self.output_names)
        return dup

    def summary(self) -> str:
        """Human-readable multi-line description."""
        lines = [f"Graph {self.name!r}: {len(self)} layers"]
        for layer in self.toposort():
            lines.append(
                f"  {layer.name:<28} {layer.kind.value:<22} "
                f"{','.join(layer.inputs)} -> {','.join(layer.outputs)}"
            )
        return "\n".join(lines)
