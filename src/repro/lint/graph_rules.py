"""Static rules over the graph IR.

Families implemented here:

* ``G0xx`` — structure (dangling/duplicate tensors, cycles,
  unreachable layers, output declarations) and shape/dtype flow
  (cross-checking declared layer attributes against
  :func:`repro.graph.shapes.infer_shapes`);
* ``Q0xx`` — quantization sanity at the graph level;
* ``F0xx`` — fusion legality for the fused/merged kinds the optimizer
  passes produce.

Every rule reads a :class:`GraphView` — a cached analysis wrapper so
that expensive facts (toposort, reachability, shape inference) are
computed once per lint run, and so that a *broken* graph (on which
``toposort`` or ``infer_shapes`` raise) still yields diagnostics
instead of exceptions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.graph.ir import (
    DataType,
    Graph,
    GraphError,
    Layer,
    LayerKind,
    WEIGHTED_KINDS,
)
from repro.graph.shapes import infer_shapes

from repro.lint.core import (
    Diagnostic,
    LintReport,
    LintRule,
    Severity,
    register_rule,
    run_rules,
)

#: Registry of all graph-level rules, keyed by rule ID.
GRAPH_RULES: Dict[str, LintRule] = {}

#: Kinds whose kernels exist in quantized precisions (mirrors
#: ``repro.engine.passes.quantization.QUANTIZABLE`` without importing
#: the engine package from the graph-level linter).
_QUANTIZABLE_KINDS = frozenset(
    {
        LayerKind.CONVOLUTION,
        LayerKind.FUSED_CONV_BLOCK,
        LayerKind.MERGED_CONV,
        LayerKind.DEPTHWISE_CONVOLUTION,
        LayerKind.FULLY_CONNECTED,
        LayerKind.FUSED_FC_BLOCK,
        LayerKind.DECONVOLUTION,
    }
)

#: Activation functions the runtime implements (``repro.runtime.ops``).
_KNOWN_ACTIVATIONS = frozenset(
    {"relu", "relu6", "leaky_relu", "sigmoid", "tanh"}
)

#: Kinds with an explicit (kernel, stride, pad) spatial window.
_WINDOWED_KINDS = frozenset(
    {
        LayerKind.CONVOLUTION,
        LayerKind.FUSED_CONV_BLOCK,
        LayerKind.DEPTHWISE_CONVOLUTION,
        LayerKind.MERGED_CONV,
        LayerKind.POOLING,
    }
)

#: FP16 magnitude above which accumulated sums credibly overflow the
#: half-precision range (max normal 65504): a conservative headroom of
#: 64x for reduction growth.
_FP16_SAFE_ABSMAX = 1024.0


def _on_cycle(edges: Dict[str, Set[str]]) -> Set[str]:
    """Nodes of ``edges`` that lie on a cycle: members of a strongly
    connected component of two or more, or with an edge to themselves.
    Tarjan's algorithm with an explicit stack, O(V + E)."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    stack: List[str] = []
    on_stack: Set[str] = set()
    cyclic: Set[str] = set()
    for root in edges:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(edges[root]))]
        while work:
            node, successors = work[-1]
            for succ in successors:
                if succ not in index:
                    index[succ] = low[succ] = len(index)
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(edges[succ])))
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1 or node in edges[node]:
                        cyclic.update(component)
    return cyclic


class GraphView:
    """Cached, exception-safe analysis over one graph."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self._shapes: Optional[Dict[str, Tuple[int, ...]]] = None
        self._shape_error: Optional[str] = None
        self._shapes_done = False

    # ------------------------------------------------------------------
    @property
    def producers(self) -> Dict[str, List[Layer]]:
        """Tensor name -> every layer that defines it (>=2 is a bug)."""
        try:
            return self._producers
        except AttributeError:
            producers: Dict[str, List[Layer]] = {}
            for layer in self.graph.layers:
                for out in layer.outputs:
                    producers.setdefault(out, []).append(layer)
            self._producers = producers
            return producers

    @property
    def defined(self) -> Set[str]:
        """Every tensor name with a definition (inputs + layer outputs)."""
        try:
            return self._defined
        except AttributeError:
            self._defined = set(self.graph.input_specs) | set(self.producers)
            return self._defined

    @property
    def consumed(self) -> Set[str]:
        try:
            return self._consumed
        except AttributeError:
            self._consumed = {
                t for layer in self.graph.layers for t in layer.inputs
            }
            return self._consumed

    @property
    def reachable(self) -> Set[str]:
        """Names of layers that transitively feed a declared output."""
        try:
            return self._reachable
        except AttributeError:
            frontier = list(self.graph.output_names)
            reached: Set[str] = set()
            while frontier:
                tensor = frontier.pop()
                for layer in self.producers.get(tensor, []):
                    if layer.name in reached:
                        continue
                    reached.add(layer.name)
                    frontier.extend(layer.inputs)
            self._reachable = reached
            return reached

    @property
    def unschedulable(self) -> List[Layer]:
        """Layers that can never run because a defined input of theirs
        waits on a cycle (dangling inputs are G001's business, not
        G003's), from :meth:`Graph.schedule`."""
        try:
            return self._unschedulable
        except AttributeError:
            _, self._unschedulable = self.graph.schedule(
                ignore_undefined=True
            )
            return self._unschedulable

    @property
    def cyclic_layers(self) -> List[str]:
        """Layers on a dependency cycle (empty for a DAG).

        Of the unschedulable layers, those in a strongly connected
        component of two or more, or consuming their own output, over
        the edges that block: producer -> consumer through a tensor
        whose every producer is unschedulable.  Layers that only sit
        downstream of a cycle are left out.  Every unschedulable layer
        waits on such a tensor, so following those edges backwards
        must close a cycle: this list is empty exactly when
        :attr:`unschedulable` is.
        """
        try:
            return self._cyclic
        except AttributeError:
            pass
        blocked = {layer.name for layer in self.unschedulable}
        edges: Dict[str, Set[str]] = {name: set() for name in blocked}
        for layer in self.unschedulable:
            for tensor in layer.inputs:
                if tensor in self.graph.input_specs:
                    continue
                producers = self.producers.get(tensor, [])
                if producers and all(p.name in blocked for p in producers):
                    for producer in producers:
                        edges[producer.name].add(layer.name)
        self._cyclic = sorted(_on_cycle(edges))
        return self._cyclic

    @property
    def structural_ok(self) -> bool:
        """No dangling/duplicate tensors and no cycles: shape inference
        has a well-defined meaning."""
        if self.cyclic_layers:
            return False
        for tensor, producers in self.producers.items():
            if len(producers) > 1 or tensor in self.graph.input_specs:
                return False
        for layer in self.graph.layers:
            for t in layer.inputs:
                if t not in self.defined:
                    return False
        return True

    @property
    def shapes(self) -> Optional[Dict[str, Tuple[int, ...]]]:
        """Inferred tensor shapes, or None if inference failed."""
        self._run_shapes()
        return self._shapes

    @property
    def shape_error(self) -> Optional[str]:
        """The shape-inference failure message, if any."""
        self._run_shapes()
        return self._shape_error

    def _run_shapes(self) -> None:
        if self._shapes_done:
            return
        self._shapes_done = True
        if not self.structural_ok:
            return  # inference would raise for a structural reason
        try:
            self._shapes = infer_shapes(self.graph)
        except (
            GraphError,
            KeyError,
            ValueError,
            TypeError,
            ZeroDivisionError,
        ) as exc:
            self._shape_error = str(exc)

    def tensor_dtype(self, tensor: str) -> Optional[DataType]:
        """Storage precision of ``tensor``: its producer's precision,
        or the input spec's dtype for graph inputs."""
        spec = self.graph.input_specs.get(tensor)
        if spec is not None:
            return spec.dtype
        producers = self.producers.get(tensor)
        if producers:
            return producers[0].precision
        return None


# ----------------------------------------------------------------------
# G: structure
# ----------------------------------------------------------------------
@register_rule(
    GRAPH_RULES, "G001", "dangling-tensor",
    description="A layer consumes a tensor nothing defines.",
)
def _check_dangling(view: GraphView, report) -> None:
    for layer in view.graph.layers:
        for tensor in layer.inputs:
            if tensor not in view.defined:
                report(
                    f"input tensor {tensor!r} of layer {layer.name!r} is "
                    "never defined",
                    layer=layer.name,
                    tensor=tensor,
                )


@register_rule(
    GRAPH_RULES, "G002", "duplicate-tensor",
    description="A tensor has more than one definition.",
)
def _check_duplicates(view: GraphView, report) -> None:
    for tensor, producers in view.producers.items():
        if len(producers) > 1:
            names = ", ".join(repr(p.name) for p in producers)
            report(
                f"tensor {tensor!r} is defined by {len(producers)} layers: "
                f"{names}",
                tensor=tensor,
            )
        elif tensor in view.graph.input_specs:
            report(
                f"tensor {tensor!r} is both a graph input and an output of "
                f"layer {producers[0].name!r}",
                layer=producers[0].name,
                tensor=tensor,
            )


@register_rule(
    GRAPH_RULES, "G003", "graph-cycle",
    description="The layer dependency graph contains a cycle.",
)
def _check_cycles(view: GraphView, report) -> None:
    if view.cyclic_layers:
        report(
            "dependency cycle through layer(s): "
            + ", ".join(repr(n) for n in view.cyclic_layers),
            layer=view.cyclic_layers[0],
        )


@register_rule(
    GRAPH_RULES, "G004", "unreachable-layer", Severity.WARNING,
    description="A layer's outputs cannot reach any declared graph "
    "output (dead code: legal in freshly imported models, removed by "
    "the dead-layer pass).",
)
def _check_unreachable(view: GraphView, report) -> None:
    for layer in view.graph.layers:
        if layer.name not in view.reachable:
            report(
                f"layer {layer.name!r} ({layer.kind.value}) cannot reach "
                "any graph output",
                layer=layer.name,
            )


@register_rule(
    GRAPH_RULES, "G005", "undefined-output",
    description="A declared graph output is never produced.",
)
def _check_outputs_defined(view: GraphView, report) -> None:
    for out in view.graph.output_names:
        if out not in view.defined:
            report(
                f"graph output {out!r} is never defined", tensor=out
            )


@register_rule(
    GRAPH_RULES, "G006", "no-outputs",
    description="The graph declares no outputs at all.",
)
def _check_has_outputs(view: GraphView, report) -> None:
    if not view.graph.output_names:
        report(f"graph {view.graph.name!r} declares no outputs")


@register_rule(
    GRAPH_RULES, "G007", "unused-input", Severity.WARNING,
    description="A graph input is neither consumed nor an output.",
)
def _check_unused_inputs(view: GraphView, report) -> None:
    for name in view.graph.input_specs:
        if name not in view.consumed and name not in view.graph.output_names:
            report(f"graph input {name!r} is never consumed", tensor=name)


# ----------------------------------------------------------------------
# G: shape / dtype flow
# ----------------------------------------------------------------------
@register_rule(
    GRAPH_RULES, "G010", "dtype-mismatch", Severity.WARNING,
    description="A concat/elementwise layer mixes inputs stored at "
    "different precisions (the runtime silently upcasts; a real engine "
    "inserts a reformat kernel).",
)
def _check_dtype_flow(view: GraphView, report) -> None:
    for layer in view.graph.layers:
        if layer.kind not in (LayerKind.CONCAT, LayerKind.ELEMENTWISE):
            continue
        dtypes = {}
        for tensor in layer.inputs:
            dtype = view.tensor_dtype(tensor)
            if dtype is not None:
                dtypes[tensor] = dtype
        if len(set(dtypes.values())) > 1:
            detail = ", ".join(
                f"{t}:{d.value}" for t, d in sorted(dtypes.items())
            )
            report(
                f"{layer.kind.value} layer {layer.name!r} mixes input "
                f"precisions ({detail})",
                layer=layer.name,
            )


@register_rule(
    GRAPH_RULES, "G011", "shape-inference-failure",
    description="Static shape inference fails on a structurally sound "
    "graph (incompatible concat/elementwise/reshape shapes, collapsed "
    "windows, ...).",
)
def _check_shape_inference(view: GraphView, report) -> None:
    if view.shape_error is not None:
        report(f"shape inference failed: {view.shape_error}")


@register_rule(
    GRAPH_RULES, "G012", "weight-shape-mismatch",
    description="A layer's weight arrays disagree with its declared "
    "attributes or its inferred input shape.",
)
def _check_weight_shapes(view: GraphView, report) -> None:
    shapes = view.shapes

    def in_channels(layer: Layer) -> Optional[int]:
        if shapes is None or not layer.inputs:
            return None
        shape = shapes.get(layer.inputs[0])
        return shape[0] if shape and len(shape) == 3 else None

    for layer in view.graph.layers:
        kernel = layer.weights.get("kernel")
        if layer.kind in (
            LayerKind.CONVOLUTION,
            LayerKind.FUSED_CONV_BLOCK,
            LayerKind.DECONVOLUTION,
        ):
            if kernel is None:
                continue  # F003's business
            out_c = int(layer.attrs.get("out_channels", -1))
            k = int(layer.attrs.get("kernel", 3))
            if kernel.ndim != 4:
                report(
                    f"conv kernel of {layer.name!r} has {kernel.ndim} "
                    "dims, expected 4 (OIHW)",
                    layer=layer.name,
                )
                continue
            if kernel.shape[0] != out_c:
                report(
                    f"layer {layer.name!r} declares out_channels={out_c} "
                    f"but its kernel stores {kernel.shape[0]} filters",
                    layer=layer.name,
                )
            if kernel.shape[2:] != (k, k):
                report(
                    f"layer {layer.name!r} declares kernel={k} but its "
                    f"weight window is {kernel.shape[2:]}",
                    layer=layer.name,
                )
            in_c = in_channels(layer)
            if (
                layer.kind is not LayerKind.DECONVOLUTION
                and in_c is not None
                and kernel.shape[1] != in_c
            ):
                report(
                    f"layer {layer.name!r} reads a {in_c}-channel tensor "
                    f"but its kernel expects {kernel.shape[1]} channels",
                    layer=layer.name,
                )
        elif layer.kind is LayerKind.DEPTHWISE_CONVOLUTION:
            in_c = in_channels(layer)
            if kernel is None or in_c is None:
                continue
            if kernel.ndim != 4 or kernel.shape[0] != in_c:
                report(
                    f"depthwise layer {layer.name!r} reads {in_c} channels "
                    f"but its kernel covers "
                    f"{kernel.shape[0] if kernel.ndim else '?'}",
                    layer=layer.name,
                )
        elif layer.kind in (
            LayerKind.FULLY_CONNECTED,
            LayerKind.FUSED_FC_BLOCK,
        ):
            if kernel is None:
                continue
            out_units = int(layer.attrs.get("out_units", -1))
            if kernel.ndim != 2 or kernel.shape[0] != out_units:
                report(
                    f"fc layer {layer.name!r} declares out_units="
                    f"{out_units} but its weight matrix is {kernel.shape}",
                    layer=layer.name,
                )
                continue
            if shapes is not None and layer.inputs:
                in_shape = shapes.get(layer.inputs[0])
                if in_shape is not None:
                    in_vol = int(np.prod(in_shape))
                    if kernel.shape[1] != in_vol:
                        report(
                            f"fc layer {layer.name!r} reads {in_vol} "
                            f"values but its weight matrix expects "
                            f"{kernel.shape[1]}",
                            layer=layer.name,
                        )
        elif layer.kind in (LayerKind.BATCHNORM, LayerKind.SCALE):
            in_c = in_channels(layer)
            if in_c is None:
                continue
            for key, arr in layer.weights.items():
                if arr.shape != (in_c,):
                    report(
                        f"{layer.kind.value} layer {layer.name!r} has "
                        f"{key} of shape {arr.shape}, expected ({in_c},)",
                        layer=layer.name,
                    )


@register_rule(
    GRAPH_RULES, "G013", "bad-input-spec",
    description="A graph input declares a non-positive dimension.",
)
def _check_input_specs(view: GraphView, report) -> None:
    for name, spec in view.graph.input_specs.items():
        if any(int(d) <= 0 for d in spec.shape):
            report(
                f"graph input {name!r} declares shape {spec.shape}",
                tensor=name,
            )


# ----------------------------------------------------------------------
# Q: quantization sanity
# ----------------------------------------------------------------------
@register_rule(
    GRAPH_RULES, "Q002", "int8-unquantizable-kind",
    description="A layer is marked INT8 but its kind has no quantized "
    "kernels.",
)
def _check_int8_kinds(view: GraphView, report) -> None:
    for layer in view.graph.layers:
        if (
            layer.precision is DataType.INT8
            and layer.kind not in _QUANTIZABLE_KINDS
        ):
            report(
                f"layer {layer.name!r} ({layer.kind.value}) is marked INT8 "
                "but only GEMM-like kinds have INT8 kernels",
                layer=layer.name,
            )


@register_rule(
    GRAPH_RULES, "Q003", "fp16-overflow-risk", Severity.WARNING,
    description="An FP16 layer carries weights large enough that "
    "accumulation credibly overflows half precision.",
)
def _check_fp16_range(view: GraphView, report) -> None:
    for layer in view.graph.layers:
        if layer.precision is not DataType.FP16 or not layer.weights:
            continue
        absmax = max(
            (float(np.abs(w).max()) for w in layer.weights.values() if w.size),
            default=0.0,
        )
        if absmax > _FP16_SAFE_ABSMAX:
            report(
                f"layer {layer.name!r} runs FP16 with |weight| up to "
                f"{absmax:.3g} (overflow headroom is "
                f"{65504 / max(absmax, 1e-30):.1f}x)",
                layer=layer.name,
            )


# ----------------------------------------------------------------------
# F: fusion legality
# ----------------------------------------------------------------------
@register_rule(
    GRAPH_RULES, "F001", "illegal-fusion-shape",
    description="A windowed layer's (kernel, stride, pad) geometry is "
    "degenerate: non-positive window/stride, or padding wide enough "
    "that a window can sit entirely in the padding region.",
)
def _check_window_geometry(view: GraphView, report) -> None:
    for layer in view.graph.layers:
        if layer.kind not in _WINDOWED_KINDS:
            continue
        if layer.kind is LayerKind.POOLING and (
            layer.attrs.get("global") or layer.attrs.get("pad_mode") == "same"
        ):
            continue
        kernel = int(layer.attrs.get("kernel", 3))
        stride = int(layer.attrs.get("stride", 1))
        pad = int(layer.attrs.get("pad", 0))
        if kernel < 1 or stride < 1:
            report(
                f"layer {layer.name!r} has degenerate window "
                f"(kernel={kernel}, stride={stride})",
                layer=layer.name,
            )
        elif pad >= kernel:
            report(
                f"layer {layer.name!r} pads by {pad} with a {kernel}-wide "
                "window: edge windows fall entirely inside the padding",
                layer=layer.name,
            )


@register_rule(
    GRAPH_RULES, "F002", "merged-splits-mismatch",
    description="A horizontally merged convolution's channel splits "
    "disagree with its outputs or its stacked weights.",
)
def _check_merged_splits(view: GraphView, report) -> None:
    for layer in view.graph.layers:
        if layer.kind is not LayerKind.MERGED_CONV:
            continue
        splits = [int(s) for s in layer.attrs.get("splits", [])]
        if len(splits) != len(layer.outputs):
            report(
                f"merged conv {layer.name!r} declares {len(splits)} splits "
                f"for {len(layer.outputs)} outputs",
                layer=layer.name,
            )
        kernel = layer.weights.get("kernel")
        if kernel is not None and splits and kernel.shape[0] != sum(splits):
            report(
                f"merged conv {layer.name!r} splits sum to {sum(splits)} "
                f"channels but its stacked kernel stores {kernel.shape[0]}",
                layer=layer.name,
            )


@register_rule(
    GRAPH_RULES, "F003", "missing-weights",
    description="A weighted layer kind carries no learned parameters.",
)
def _check_weights_present(view: GraphView, report) -> None:
    needed = {
        LayerKind.BATCHNORM: ("gamma", "beta", "mean", "var"),
        LayerKind.SCALE: ("gamma", "beta"),
    }
    for layer in view.graph.layers:
        if layer.kind not in WEIGHTED_KINDS:
            continue
        required = needed.get(layer.kind, ("kernel",))
        missing = [key for key in required if key not in layer.weights]
        if missing:
            report(
                f"layer {layer.name!r} ({layer.kind.value}) lacks weight "
                f"array(s): {', '.join(missing)}",
                layer=layer.name,
            )


@register_rule(
    GRAPH_RULES, "F004", "unknown-activation",
    description="An activation (fused or standalone) names a function "
    "the runtime does not implement.",
)
def _check_activations(view: GraphView, report) -> None:
    for layer in view.graph.layers:
        if layer.kind is LayerKind.ACTIVATION:
            function = layer.attrs.get("function")
        else:
            function = layer.attrs.get("activation")
        if function is not None and function not in _KNOWN_ACTIVATIONS:
            report(
                f"layer {layer.name!r} uses unknown activation "
                f"{function!r} (known: "
                f"{', '.join(sorted(_KNOWN_ACTIVATIONS))})",
                layer=layer.name,
            )


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def lint_graph(
    graph: Graph,
    select=None,
    ignore=None,
) -> LintReport:
    """Run every graph rule over ``graph`` and return the report."""
    return run_rules(
        GRAPH_RULES,
        GraphView(graph),
        subject_name=f"graph {graph.name!r}",
        select=select,
        ignore=ignore,
    )


__all__ = [
    "GRAPH_RULES",
    "GraphView",
    "lint_graph",
    "Diagnostic",
    "Severity",
]
