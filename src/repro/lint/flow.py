"""Dataflow analysis over the graph IR and built engines (D-family).

Where the ``G``/``Q``/``F``/``P`` rules check local well-formedness,
this module runs three *whole-program* analyses and turns their results
into lint rules:

* **Value-range propagation** — a forward abstract interpretation that
  tracks, per tensor, a statistical magnitude estimate (the RMS of the
  activation under a unit-RMS input assumption) plus a hard bound for
  saturating ops (sigmoid/tanh/relu6/softmax).  Linear layers scale the
  RMS by ``sqrt(mean_i sum_j w_ij^2)`` — exact for independent inputs —
  and ReLU-family activations attenuate it by ``sqrt((1+slope^2)/2)``,
  so a He-initialized stack propagates at unit gain.  Unlike naive
  interval arithmetic, whose bounds grow as the weights' L1 norm and
  diverge after a handful of convolutions, the estimate stays
  calibrated through deep stacks.  The certified absmax of a tensor is
  :data:`RANGE_SIGMA` times its RMS (or the hard bound when tighter).
  This is what lets ``D001`` flag FP16 overflow-prone chains and
  ``D003`` reject INT8 calibration scales that claim clip thresholds
  above anything the network can produce.

* **Activation liveness** — exact tensor lifetimes over the execution
  schedule (engine binding order when available, else topological
  order): definition point, last use, and byte size.  From the
  lifetimes follow a *certified peak-memory bound* (``D004`` checks it
  against the ``DeviceSpec``'s usable RAM) and a total-footprint figure
  that ``D005`` cross-validates against the independent per-stream
  accounting in :mod:`repro.hardware.memory` — the two
  implementations must agree to within one itemsize per tensor.

* **Def-use audit of the optimized schedule** — the optimizer passes
  (dead-layer, vertical fusion, horizontal merge, quantization) rewrite
  layers and rebind tensors; ``D006``/``D007``/``D008`` certify the
  result still has a sound schedule: no binding reads a tensor before
  its producer runs (use-after-free of the previous iteration's
  buffer), no tensor is written twice, and no scheduled layer computes
  a value nothing consumes.

Like every lint module, this one must not import ``repro.engine``
machinery at module level (the builder imports ``repro.lint``); the
engine type is only duck-typed through the attributes the rules read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.graph.ir import DataType, Graph, Layer, LayerKind
from repro.hardware.memory import (
    ACTIVATION_BUFFER_COPIES,
    PER_CONTEXT_SCRATCH_BYTES,
    activation_itemsize,
    per_stream_working_set_bytes,
)
from repro.lint.core import LintReport, LintRule, Severity, register_rule, run_rules
from repro.lint.graph_rules import GraphView

#: Registry of all dataflow rules, keyed by rule ID.
FLOW_RULES: Dict[str, LintRule] = {}

#: Certified-bound multiplier: a tensor's absmax estimate is this many
#: RMS units (an 8-sigma excursion of a near-Gaussian activation has
#: probability ~1e-15 per element — beyond it we call overflow *prone*).
RANGE_SIGMA = 8.0

#: FP16 largest finite value; anything certified above it overflows.
FP16_MAX = 65504.0

#: ``D003`` tolerance: a calibration clip threshold may exceed the
#: certified absmax by this factor before we call the cache foreign
#: (percentile clipping keeps real thresholds *below* the true max, so
#: a large excess means the scales were measured on different data).
INT8_SCALE_SLACK = 4.0

#: ``D009`` reformat-boundary threshold: precision flips on at least
#: this many schedule edges of one engine get reported.
PRECISION_FLIP_LIMIT = 3

#: Saturating activation functions and their output bound.
_BOUNDED_ACTIVATIONS = {
    "sigmoid": 1.0,
    "tanh": 1.0,
    "relu6": 6.0,
}

_CONV_LIKE = frozenset(
    {
        LayerKind.CONVOLUTION,
        LayerKind.FUSED_CONV_BLOCK,
        LayerKind.MERGED_CONV,
        LayerKind.DEPTHWISE_CONVOLUTION,
        LayerKind.DECONVOLUTION,
    }
)

_DENSE_LIKE = frozenset(
    {LayerKind.FULLY_CONNECTED, LayerKind.FUSED_FC_BLOCK}
)

_PASSTHROUGH = frozenset(
    {
        LayerKind.POOLING,
        LayerKind.LRN,
        LayerKind.FLATTEN,
        LayerKind.DROPOUT,
        LayerKind.IDENTITY,
        LayerKind.UPSAMPLE,
        LayerKind.PERMUTE,
        LayerKind.RESHAPE,
        LayerKind.DETECTION_OUTPUT,
        LayerKind.REGION,
        LayerKind.INPUT,
    }
)


class DataflowViolation(Exception):
    """Raised by the builder's analyze gate when D-rules find errors."""

    def __init__(self, report: LintReport):
        self.report = report
        first = report.errors[0]
        more = (
            f" (+{len(report.errors) - 1} more)"
            if len(report.errors) > 1
            else ""
        )
        super().__init__(
            f"dataflow analysis failed: {first.format()}{more}"
        )


@dataclass(frozen=True)
class TensorRange:
    """Abstract value of one tensor: RMS estimate + optional hard cap."""

    rms: float
    cap: Optional[float] = None  # exact bound from a saturating op

    @property
    def absmax(self) -> float:
        """Certified magnitude bound (RANGE_SIGMA-sigma or the cap)."""
        soft = RANGE_SIGMA * self.rms
        return min(soft, self.cap) if self.cap is not None else soft

    @property
    def effective_rms(self) -> float:
        """RMS for downstream propagation (a capped signal's RMS never
        exceeds its cap)."""
        return min(self.rms, self.cap) if self.cap is not None else self.rms


@dataclass(frozen=True)
class TensorLife:
    """Liveness record of one tensor over the execution schedule."""

    name: str
    nbytes: int  # at batch 1, in the engine's activation precision
    def_pos: int  # schedule index of the producer (-1: graph input)
    last_use: int  # schedule index of the final consumer
    is_output: bool  # declared graph output: lives to schedule end


def _weight_gain(layer: Layer) -> Optional[float]:
    """``sqrt(mean_i sum_j w_ij^2)`` of a linear layer's weight matrix.

    Under independent unit-RMS inputs, output unit *i* has RMS
    ``sqrt(sum_j w_ij^2)``; the mean of the squares over units is
    therefore the *exact* squared RMS of the whole output tensor.
    (Taking the max over units instead compounds a few percent of
    sampling noise per layer and diverges over a 75-layer stack;
    unit-to-unit spread is what the RANGE_SIGMA multiplier absorbs.)
    """
    kernel = layer.weights.get("kernel")
    if kernel is None or kernel.ndim < 2:
        return None
    rows = np.asarray(kernel, dtype=np.float64).reshape(
        kernel.shape[0], -1
    )
    gain_sq = float(np.mean(np.sum(rows * rows, axis=1)))
    return math.sqrt(gain_sq)


def _max_abs(layer: Layer, key: str) -> float:
    w = layer.weights.get(key)
    if w is None or w.size == 0:
        return 0.0
    return float(np.max(np.abs(w)))


def _apply_activation(
    value: TensorRange, function: Optional[str], slope: float = 0.0
) -> TensorRange:
    if not function:
        return value
    bound = _BOUNDED_ACTIVATIONS.get(function)
    if bound is not None:
        return TensorRange(rms=min(value.rms, bound), cap=bound)
    if function == "relu":
        slope = 0.0
    if function in ("relu", "leaky_relu"):
        # For a symmetric zero-mean input, E[relu(x)^2] = E[x^2]/2 (the
        # halving He initialization's factor of 2 compensates for);
        # leaky_relu keeps slope^2 of the negative half's power.
        factor = math.sqrt((1.0 + slope * slope) / 2.0)
        # The hard cap is an absmax bound; sign-clipping never raises it.
        return TensorRange(rms=value.rms * factor, cap=value.cap)
    return value


class FlowView:
    """Cached dataflow analysis over one graph or built engine.

    Accepts either a bare :class:`~repro.graph.ir.Graph` or anything
    engine-shaped (``.graph``, ``.bindings``, ``.device``,
    ``.precision_mode``, ``.math_config``, ``.size_bytes`` — the rules
    degrade gracefully when engine-only facts are absent).  All derived
    facts are computed lazily and at most once, and a structurally
    broken graph yields ``None`` analyses instead of exceptions (the
    G-rules own structural reporting).
    """

    def __init__(self, subject, batch_size: int = 1):
        if isinstance(subject, Graph):
            self.graph = subject
            self.engine = None
        else:
            self.graph = subject.graph
            self.engine = subject
        self.batch_size = int(batch_size)
        self.gview = GraphView(self.graph)
        self._ranges: Optional[Dict[str, TensorRange]] = None
        self._ranges_done = False
        self._lives: Optional[List[TensorLife]] = None
        self._lives_done = False

    # ------------------------------------------------------------------
    # schedule
    # ------------------------------------------------------------------
    @property
    def schedule(self) -> Optional[List[Layer]]:
        """Execution order: the engine's binding order when available
        (that is what actually runs), else a topological order."""
        try:
            return self._schedule
        except AttributeError:
            pass
        order: Optional[List[Layer]] = None
        if not self.gview.structural_ok:
            self._schedule = None
            return None
        by_name = {layer.name: layer for layer in self.graph.layers}
        if self.engine is not None and getattr(
            self.engine, "bindings", None
        ):
            bound = [
                by_name[b.layer_name]
                for b in self.engine.bindings
                if b.layer_name in by_name
            ]
            # Fall back to toposort when bindings do not cover the
            # graph (D007 reports the discrepancy separately).
            if len(bound) == len(self.graph.layers):
                order = bound
        if order is None:
            try:
                order = self.graph.toposort()
            except Exception:
                order = None
        self._schedule = order
        return order

    @property
    def positions(self) -> Dict[str, int]:
        """Layer name -> schedule index."""
        sched = self.schedule or []
        return {layer.name: i for i, layer in enumerate(sched)}

    # ------------------------------------------------------------------
    # value ranges
    # ------------------------------------------------------------------
    @property
    def ranges(self) -> Optional[Dict[str, TensorRange]]:
        """Per-tensor abstract values, or None on a broken graph."""
        if self._ranges_done:
            return self._ranges
        self._ranges_done = True
        sched = self.schedule
        if sched is None:
            return None
        values: Dict[str, TensorRange] = {
            name: TensorRange(rms=1.0) for name in self.graph.input_specs
        }
        for layer in sched:
            ins = [values[t] for t in layer.inputs if t in values]
            out = self._transfer(layer, ins)
            for name in layer.outputs:
                if out is not None:
                    values[name] = out
        self._ranges = values
        return values

    def _transfer(
        self, layer: Layer, ins: List[TensorRange]
    ) -> Optional[TensorRange]:
        """Abstract transfer function of one layer."""
        kind = layer.kind
        if kind in _CONV_LIKE or kind in _DENSE_LIKE:
            if not ins:
                return None
            gain = _weight_gain(layer)
            if gain is None:
                return None
            rms_in = ins[0].effective_rms
            bias = _max_abs(layer, "bias")
            rms = math.sqrt((rms_in * gain) ** 2 + bias**2)
            return _apply_activation(
                TensorRange(rms=rms),
                layer.attrs.get("activation"),
                slope=float(layer.attrs.get("slope", 0.0)),
            )
        if kind is LayerKind.ACTIVATION:
            if not ins:
                return None
            return _apply_activation(
                ins[0],
                str(layer.attrs.get("function", "")),
                slope=float(layer.attrs.get("slope", 0.1)),
            )
        if kind in (LayerKind.BATCHNORM, LayerKind.SCALE):
            if not ins:
                return None
            gamma = layer.weights.get("gamma")
            if gamma is None:
                return ins[0]
            if kind is LayerKind.BATCHNORM:
                var = layer.weights.get("var")
                eps = float(layer.attrs.get("epsilon", 1e-5))
                if var is None:
                    return ins[0]
                gain = math.sqrt(
                    float(np.mean(gamma * gamma / (var + eps)))
                )
            else:
                gain = math.sqrt(float(np.mean(gamma * gamma)))
            beta = _max_abs(layer, "beta")
            rms = math.sqrt((ins[0].effective_rms * gain) ** 2 + beta**2)
            return TensorRange(rms=rms)
        if kind is LayerKind.SOFTMAX:
            return TensorRange(rms=1.0, cap=1.0)
        if kind is LayerKind.CONCAT:
            if not ins:
                return None
            caps = [v.cap for v in ins]
            cap = (
                max(c for c in caps if c is not None)
                if all(c is not None for c in caps)
                else None
            )
            return TensorRange(rms=max(v.rms for v in ins), cap=cap)
        if kind is LayerKind.ELEMENTWISE:
            if not ins:
                return None
            op = str(layer.attrs.get("op", "add"))
            if op == "add":
                rms = math.sqrt(sum(v.effective_rms**2 for v in ins))
                return TensorRange(rms=rms)
            if op == "mul":
                rms = 1.0
                for v in ins:
                    rms *= v.effective_rms
                return TensorRange(rms=rms)
            # max: bounded by the largest operand.
            caps = [v.cap for v in ins]
            cap = (
                max(c for c in caps if c is not None)
                if all(c is not None for c in caps)
                else None
            )
            return TensorRange(rms=max(v.rms for v in ins), cap=cap)
        if kind in _PASSTHROUGH:
            return ins[0] if ins else None
        return None  # unknown kind: range not derivable

    # ------------------------------------------------------------------
    # storage precisions
    # ------------------------------------------------------------------
    def storage_dtype(self, tensor: str) -> Optional[DataType]:
        return self.gview.tensor_dtype(tensor)

    def engine_itemsize(self) -> int:
        """Bytes per activation element at the engine level (matches
        the concurrency scheduler's accounting convention)."""
        if self.engine is not None and hasattr(
            self.engine, "precision_mode"
        ):
            return activation_itemsize(self.engine.precision_mode.value)
        return DataType.FP32.itemsize

    # ------------------------------------------------------------------
    # liveness
    # ------------------------------------------------------------------
    @property
    def liveness(self) -> Optional[List[TensorLife]]:
        """Exact tensor lifetimes, or None when shapes are unavailable."""
        if self._lives_done:
            return self._lives
        self._lives_done = True
        sched = self.schedule
        shapes = self.gview.shapes
        if sched is None or shapes is None:
            return None
        positions = {layer.name: i for i, layer in enumerate(sched)}
        itemsize = self.engine_itemsize()
        outputs = set(self.graph.output_names)
        end = len(sched)

        def_pos: Dict[str, int] = {
            name: -1 for name in self.graph.input_specs
        }
        last_use: Dict[str, int] = {}
        for layer in sched:
            pos = positions[layer.name]
            for t in layer.outputs:
                def_pos.setdefault(t, pos)
            for t in layer.inputs:
                if t in def_pos:
                    last_use[t] = max(last_use.get(t, -1), pos)

        lives: List[TensorLife] = []
        for name, dpos in def_pos.items():
            shape = shapes.get(name)
            if shape is None:
                continue
            nbytes = int(np.prod(shape)) * itemsize
            is_out = name in outputs
            lives.append(
                TensorLife(
                    name=name,
                    nbytes=nbytes,
                    def_pos=dpos,
                    last_use=end if is_out else last_use.get(name, dpos),
                    is_output=is_out,
                )
            )
        self._lives = lives
        return lives

    def total_activation_bytes(self) -> Optional[int]:
        """Sum of every tensor's bytes over its whole lifetime — the
        liveness-side counterpart of
        :func:`repro.hardware.memory.activation_bytes`."""
        lives = self.liveness
        if lives is None:
            return None
        return sum(life.nbytes for life in lives) * self.batch_size

    def peak_activation_bytes(self) -> Optional[int]:
        """Certified peak of the live-tensor set over the schedule: the
        smallest activation arena a lifetime-respecting allocator needs
        for one stream at this batch size."""
        lives = self.liveness
        if lives is None:
            return None
        events: Dict[int, int] = {}
        for life in lives:
            events[life.def_pos] = events.get(life.def_pos, 0) + life.nbytes
            free_at = life.last_use + 1
            events[free_at] = events.get(free_at, 0) - life.nbytes
        peak = current = 0
        for pos in sorted(events):
            current += events[pos]
            peak = max(peak, current)
        return peak * self.batch_size

    def certified_working_set_bytes(self) -> Optional[int]:
        """Peak activations (double-buffered) + scratch + resident
        engine weights: what one stream provably needs."""
        peak = self.peak_activation_bytes()
        if peak is None:
            return None
        weights = (
            int(getattr(self.engine, "size_bytes", 0))
            if self.engine is not None
            else 0
        )
        return (
            peak * ACTIVATION_BUFFER_COPIES
            + PER_CONTEXT_SCRATCH_BYTES
            + weights
        )


# ----------------------------------------------------------------------
# D: value-range rules
# ----------------------------------------------------------------------
@register_rule(
    FLOW_RULES, "D001", "fp16-range-overflow", Severity.WARNING,
    description="Forward value-range propagation certifies a tensor "
    "stored at FP16 can exceed the half-precision maximum (65504): the "
    "chain is overflow-prone and should pin FP32 for these layers.",
)
def _check_fp16_overflow(view: FlowView, report) -> None:
    ranges = view.ranges
    if ranges is None:
        return
    for layer in view.schedule or []:
        for tensor in layer.outputs:
            value = ranges.get(tensor)
            if value is None:
                continue
            dtype = view.storage_dtype(tensor)
            if dtype is not DataType.FP16:
                continue
            if value.absmax > FP16_MAX:
                report(
                    f"FP16 tensor {tensor!r} has certified range "
                    f"+-{value.absmax:.3g} (> {FP16_MAX:.0f}); the "
                    f"chain through {layer.name!r} is overflow-prone",
                    layer=layer.name,
                    tensor=tensor,
                )


@register_rule(
    FLOW_RULES, "D002", "int8-range-unreachable",
    description="A layer runs INT8 but range propagation cannot derive "
    "any input magnitude for it from the graph inputs — no calibration "
    "pass over input data can certify its quantization scale.",
)
def _check_int8_reachable(view: FlowView, report) -> None:
    ranges = view.ranges
    if ranges is None:
        return
    for layer in view.graph.layers:
        if layer.precision is not DataType.INT8:
            continue
        if not layer.inputs:
            continue
        if all(t not in ranges for t in layer.inputs):
            report(
                f"INT8 layer {layer.name!r} is unreachable from a "
                "calibratable value range (no input magnitude derivable "
                "from the graph inputs)",
                layer=layer.name,
                tensor=layer.inputs[0],
            )


@register_rule(
    FLOW_RULES, "D003", "int8-scale-unsound", Severity.WARNING,
    description="An INT8 layer's calibrated clip threshold "
    "(127 * input scale) exceeds the certified input magnitude by more "
    "than the allowed slack: the calibration cache cannot have come "
    "from data this network produces (stale or foreign scales).",
)
def _check_int8_scale(view: FlowView, report) -> None:
    engine = view.engine
    ranges = view.ranges
    if engine is None or ranges is None:
        return
    math_config = getattr(engine, "math_config", None)
    if math_config is None:
        return
    for layer in view.graph.layers:
        math_cfg = math_config.per_layer.get(layer.name)
        if math_cfg is None or math_cfg.int8_scale_in is None:
            continue
        if not layer.inputs:
            continue
        value = ranges.get(layer.inputs[0])
        if value is None:
            continue
        clip = 127.0 * float(math_cfg.int8_scale_in)
        limit = INT8_SCALE_SLACK * max(value.absmax, 1e-30)
        if clip > limit:
            report(
                f"INT8 layer {layer.name!r} clips at +-{clip:.3g} but "
                f"its input is certified within +-{value.absmax:.3g}; "
                "the calibration scale cannot come from this network's "
                "data",
                layer=layer.name,
                tensor=layer.inputs[0],
            )


@register_rule(
    FLOW_RULES, "D004", "peak-memory-exceeds-ram",
    description="The certified per-stream working set (peak live "
    "activations, double-buffered, plus scratch and resident weights) "
    "exceeds the target device's usable RAM: not even one stream fits.",
)
def _check_peak_memory(view: FlowView, report) -> None:
    engine = view.engine
    device = getattr(engine, "device", None) if engine else None
    if device is None:
        return
    working = view.certified_working_set_bytes()
    if working is None:
        return
    from repro.hardware.scheduler import USABLE_RAM_FRACTION

    usable = device.ram_gb * 1024**3 * USABLE_RAM_FRACTION
    if working > usable:
        report(
            f"certified working set {working / 2**20:.0f} MB at batch "
            f"{view.batch_size} exceeds usable RAM "
            f"{usable / 2**20:.0f} MB on {device.name}",
        )


@register_rule(
    FLOW_RULES, "D005", "activation-accounting-mismatch",
    description="The liveness-derived activation footprint disagrees "
    "with repro.hardware.memory's per-stream accounting beyond one "
    "itemsize per tensor — the admission-control numbers the serving "
    "stack budgets with no longer match what the schedule implies.",
)
def _check_accounting(view: FlowView, report) -> None:
    engine = view.engine
    if engine is None:
        return
    lives = view.liveness
    total = view.total_activation_bytes()
    if lives is None or total is None:
        return
    itemsize = view.engine_itemsize()
    try:
        expected = per_stream_working_set_bytes(
            view.graph, itemsize, view.batch_size
        )
    except Exception as exc:  # accounting itself must not crash lint
        report(f"per-stream accounting failed: {exc}")
        return
    derived = (
        total * ACTIVATION_BUFFER_COPIES + PER_CONTEXT_SCRATCH_BYTES
    )
    tolerance = (
        len(lives) * itemsize * view.batch_size * ACTIVATION_BUFFER_COPIES
    )
    if abs(derived - expected) > tolerance:
        report(
            f"liveness accounting gives {derived} working-set bytes at "
            f"batch {view.batch_size} but repro.hardware.memory gives "
            f"{expected} (tolerance {tolerance})",
        )


# ----------------------------------------------------------------------
# D: def-use / schedule rules
# ----------------------------------------------------------------------
@register_rule(
    FLOW_RULES, "D006", "use-after-free",
    description="The engine's binding schedule runs a layer before the "
    "producer of one of its inputs: at execution time the consumer "
    "reads a freed (or previous-iteration) buffer.",
)
def _check_use_after_free(view: FlowView, report) -> None:
    engine = view.engine
    if engine is None or not getattr(engine, "bindings", None):
        return
    if not view.gview.structural_ok:
        return
    order = {
        b.layer_name: i for i, b in enumerate(engine.bindings)
    }
    producers = view.gview.producers
    for layer in view.graph.layers:
        pos = order.get(layer.name)
        if pos is None:
            continue
        for tensor in layer.inputs:
            for producer in producers.get(tensor, []):
                ppos = order.get(producer.name)
                if ppos is not None and ppos > pos:
                    report(
                        f"binding {pos} ({layer.name!r}) reads "
                        f"{tensor!r} but its producer "
                        f"{producer.name!r} is scheduled later "
                        f"(binding {ppos})",
                        layer=layer.name,
                        tensor=tensor,
                    )


@register_rule(
    FLOW_RULES, "D007", "double-write",
    description="Two schedule entries write the same tensor, or one "
    "layer is bound twice: the second write clobbers a live buffer.",
)
def _check_double_write(view: FlowView, report) -> None:
    engine = view.engine
    if engine is not None and getattr(engine, "bindings", None):
        seen: Dict[str, int] = {}
        for i, binding in enumerate(engine.bindings):
            if binding.layer_name in seen:
                report(
                    f"layer {binding.layer_name!r} is bound twice "
                    f"(bindings {seen[binding.layer_name]} and {i})",
                    layer=binding.layer_name,
                )
            seen[binding.layer_name] = i
    # Tensor-level double definition across the schedule (G002 covers
    # the raw graph; here we attribute it to the optimized schedule).
    writers: Dict[str, str] = {}
    for layer in view.schedule or []:
        for tensor in layer.outputs:
            if tensor in writers:
                report(
                    f"tensor {tensor!r} is written by both "
                    f"{writers[tensor]!r} and {layer.name!r}",
                    layer=layer.name,
                    tensor=tensor,
                )
            writers[tensor] = layer.name


@register_rule(
    FLOW_RULES, "D008", "dead-store", Severity.WARNING,
    description="A scheduled layer writes a tensor that is never read "
    "and is not a graph output.  Legal in a frontend graph (G004's "
    "business); in an *optimized* schedule it means the dead-layer "
    "pass missed a rewrite or a pass orphaned a tensor.",
)
def _check_dead_store(view: FlowView, report) -> None:
    if view.engine is None:
        return  # only meaningful after the optimizer pipeline ran
    lives = view.liveness
    if lives is None:
        return
    for life in lives:
        if life.def_pos < 0 or life.is_output:
            continue
        if life.last_use <= life.def_pos:
            sched = view.schedule or []
            writer = (
                sched[life.def_pos].name
                if life.def_pos < len(sched)
                else "?"
            )
            report(
                f"tensor {life.name!r} is written at schedule position "
                f"{life.def_pos} ({writer!r}) but never read",
                layer=writer,
                tensor=life.name,
            )


@register_rule(
    FLOW_RULES, "D009", "precision-thrash", Severity.INFO,
    description="Many producer->consumer edges change storage "
    "precision: each flip costs a reformat kernel at runtime "
    "(the paper's Finding 5 reformat overhead).",
)
def _check_precision_thrash(view: FlowView, report) -> None:
    if view.engine is None:
        return
    if not view.gview.structural_ok:
        return
    producers = view.gview.producers
    flips = 0
    for layer in view.graph.layers:
        for tensor in layer.inputs:
            for producer in producers.get(tensor, []):
                if (
                    producer.precision is not layer.precision
                    and DataType.INT8
                    in (producer.precision, layer.precision)
                ):
                    flips += 1
    if flips >= PRECISION_FLIP_LIMIT:
        report(
            f"{flips} schedule edges cross an INT8 precision boundary "
            f"(each inserts a reformat kernel); consider widening the "
            "quantized region"
        )


@register_rule(
    FLOW_RULES, "D010", "constant-output", Severity.WARNING,
    description="Range propagation certifies a declared graph output "
    "is constant (zero magnitude): the network provably computes the "
    "same value for every input (e.g. a zeroed weight tensor).",
)
def _check_constant_output(view: FlowView, report) -> None:
    ranges = view.ranges
    if ranges is None:
        return
    for name in view.graph.output_names:
        value = ranges.get(name)
        if value is not None and value.absmax == 0.0:
            report(
                f"graph output {name!r} has certified range +-0: the "
                "output is provably constant",
                tensor=name,
            )


def lint_flow(
    subject,
    batch_size: int = 1,
    select=None,
    ignore=None,
    subject_name: Optional[str] = None,
) -> LintReport:
    """Run the D-family dataflow rules over a graph or built engine.

    ``subject_name`` overrides the report's subject label — baselines
    fingerprint on it, so callers that want stable suppression across
    rebuilds (the CLI, CI) pass a seed-independent name.
    """
    view = FlowView(subject, batch_size=batch_size)
    name = subject_name or getattr(subject, "name", None) or view.graph.name
    return run_rules(
        FLOW_RULES, view, f"{name} [flow]", select=select, ignore=ignore
    )
