"""Rules over built engines and serialized plan files.

Two registries live here:

* ``ENGINE_RULES`` — audit an in-memory
  :class:`repro.engine.engine.Engine` (binding completeness, size
  accounting, stored-weight byte counts, precision consistency,
  INT8 scale presence);
* ``PLAN_DOC_RULES`` — audit the *document* of a ``.plan`` file before
  deserialization is trusted (metadata sanity, kernel names resolvable
  in the tactic table).

:func:`lint_plan` runs them in two stages over one read of the file:
the document and the embedded graph are checked first, and only a
clean plan is turned into an engine
(:func:`repro.engine.plan.engine_from_plan`) and re-audited as one.  A
corrupt file therefore produces diagnostics, never a raw ``KeyError``
out of numpy.  :func:`lint_and_load_plan` also hands back that audited
engine; it is the one lint-then-load path.

Import-cycle note: ``repro.engine.builder`` imports the pass-invariant
guard from this package, so nothing here may import ``engine.builder``
or ``engine.plan`` at module level — their internals are imported
lazily inside the rule bodies.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.engine.engine import Engine
from repro.engine.kernels import DEFAULT_CATALOG
from repro.graph.ir import DataType
from repro.hardware.specs import XAVIER_AGX, XAVIER_NX

from repro.lint.core import (
    Diagnostic,
    LintReport,
    LintRule,
    register_rule,
    run_rules,
)
from repro.lint.graph_rules import lint_graph

#: Rules over an in-memory Engine.
ENGINE_RULES: Dict[str, LintRule] = {}

#: Rules over a raw plan-file document (pre-deserialization).
PLAN_DOC_RULES: Dict[str, LintRule] = {}

_KNOWN_DEVICES = frozenset(spec.name for spec in (XAVIER_NX, XAVIER_AGX))

_REQUIRED_PLAN_KEYS = (
    "plan_version",
    "name",
    "source_network",
    "device",
    "precision_mode",
    "build_seed",
    "size_bytes",
    "weight_chunks",
    "input_name",
    "bindings",
    "math",
)


def _expected_weight_chunks(engine: Engine) -> List[int]:
    """Recompute per-layer stored weight bytes the way the builder does
    (``EngineBuilder._weight_chunks``), from the engine's own bindings."""
    from repro.engine.builder import _stored_weight_bytes

    by_name = {b.layer_name: b for b in engine.bindings}
    chunks: List[int] = []
    for layer in engine.graph.layers:
        if not layer.weights:
            continue
        binding = by_name.get(layer.name)
        if binding is not None and len(binding.kernels) == 1:
            chunks.append(_stored_weight_bytes(layer, binding.kernels[0]))
        else:
            chunks.append(layer.weight_bytes())
    return chunks


# ----------------------------------------------------------------------
# P: engine integrity
# ----------------------------------------------------------------------
@register_rule(
    ENGINE_RULES, "P001", "plan-binding-mismatch",
    description="The kernel bindings do not cover the engine graph "
    "one-to-one (missing, duplicate, or orphan bindings).",
)
def _check_binding_coverage(engine: Engine, report) -> None:
    layer_names = {layer.name for layer in engine.graph.layers}
    seen: set = set()
    for binding in engine.bindings:
        if binding.transfer is not None:
            # Cross-provider transfer pseudo-bindings are not graph
            # layers; P008 audits them instead.
            continue
        if binding.layer_name in seen:
            report(
                f"layer {binding.layer_name!r} is bound more than once",
                layer=binding.layer_name,
            )
        seen.add(binding.layer_name)
        if binding.layer_name not in layer_names:
            report(
                f"binding references layer {binding.layer_name!r} which "
                "is not in the engine graph",
                layer=binding.layer_name,
            )
        if not binding.kernels:
            report(
                f"layer {binding.layer_name!r} is bound to zero kernels",
                layer=binding.layer_name,
            )
    for name in sorted(layer_names - seen):
        report(f"layer {name!r} has no kernel binding", layer=name)


@register_rule(
    ENGINE_RULES, "P002", "plan-size-mismatch",
    description="The recorded plan size disagrees with the size "
    "equation (weight chunks + fixed overhead + per-binding overhead).",
)
def _check_plan_size(engine: Engine, report) -> None:
    from repro.engine.builder import (
        PLAN_FIXED_OVERHEAD_BYTES,
        PLAN_PER_BINDING_BYTES,
    )

    expected = (
        sum(engine.weight_chunks)
        + PLAN_FIXED_OVERHEAD_BYTES
        + PLAN_PER_BINDING_BYTES * len(engine.bindings)
    )
    if engine.size_bytes != expected:
        report(
            f"engine records size_bytes={engine.size_bytes} but its "
            f"weight chunks and overheads sum to {expected}"
        )


@register_rule(
    ENGINE_RULES, "P003", "weight-chunk-mismatch",
    description="The stored per-layer weight chunks disagree with what "
    "the bound kernels' storage formats require.",
)
def _check_weight_chunks(engine: Engine, report) -> None:
    expected = _expected_weight_chunks(engine)
    actual = [int(c) for c in engine.weight_chunks]
    if len(actual) != len(expected):
        report(
            f"engine stores {len(actual)} weight chunk(s) but its graph "
            f"has {len(expected)} weighted layer(s)"
        )
        return
    weighted = [layer for layer in engine.graph.layers if layer.weights]
    for layer, want, got in zip(weighted, expected, actual):
        if want != got:
            report(
                f"layer {layer.name!r} stores {got} weight bytes but its "
                f"bound kernel's layout needs {want}",
                layer=layer.name,
            )


@register_rule(
    ENGINE_RULES, "P005", "precision-inconsistency",
    description="A layer's math configuration, stored precision, and "
    "bound kernel disagree about the compute precision.",
)
def _check_precision_consistency(engine: Engine, report) -> None:
    layer_by_name = {layer.name: layer for layer in engine.graph.layers}
    for binding in engine.bindings:
        if binding.transfer is not None:
            continue  # transfer nodes compute nothing
        if len(binding.kernels) != 1:
            continue  # fixed multi-kernel sequences carry no layer math
        kernel = binding.kernels[0]
        layer = layer_by_name.get(binding.layer_name)
        math = engine.math_config.per_layer.get(binding.layer_name)
        if math is None:
            report(
                f"layer {binding.layer_name!r} is bound to "
                f"{kernel.name!r} but has no math configuration",
                layer=binding.layer_name,
            )
            continue
        if math.precision is not kernel.precision:
            report(
                f"layer {binding.layer_name!r} math says "
                f"{math.precision.value} but its kernel {kernel.name!r} "
                f"computes in {kernel.precision.value}",
                layer=binding.layer_name,
            )
        if layer is not None and layer.precision is not kernel.precision:
            report(
                f"layer {binding.layer_name!r} is stored as "
                f"{layer.precision.value} but bound to a "
                f"{kernel.precision.value} kernel",
                layer=binding.layer_name,
            )


@register_rule(
    ENGINE_RULES, "P007", "provider-unsupported-precision",
    description="A quantized (INT8) layer is partitioned onto an "
    "execution provider that rejects quantized ops (the optimum "
    "CUDA-EP caveat); it must fall back to a supporting provider.",
)
def _check_provider_precision(engine: Engine, report) -> None:
    from repro.runtime.providers import ProviderError, resolve_provider

    for binding in engine.bindings:
        if binding.transfer is not None:
            continue
        try:
            provider = resolve_provider(binding.provider)
        except ProviderError:
            report(
                f"layer {binding.layer_name!r} is assigned to unknown "
                f"execution provider {binding.provider!r}",
                layer=binding.layer_name,
            )
            continue
        for kernel in binding.kernels:
            if kernel.precision is DataType.INT8 and not (
                provider.supports_precision(DataType.INT8)
            ):
                report(
                    f"quantized layer {binding.layer_name!r} "
                    f"({kernel.name!r}) is placed on provider "
                    f"{provider.name!r}, which rejects INT8 ops",
                    layer=binding.layer_name,
                )


@register_rule(
    ENGINE_RULES, "P008", "partition-transfer-missing",
    description="A cross-provider edge in a partitioned engine lacks "
    "its transfer node, or a transfer node is unbilled (zero or "
    "negative byte count) — the timeline would under-charge Eq. 1.",
)
def _check_partition_transfers(engine: Engine, report) -> None:
    by_name = {
        b.layer_name: b for b in engine.bindings if b.transfer is None
    }
    covered = set()
    for binding in engine.bindings:
        spec = binding.transfer
        if spec is None:
            continue
        if spec.bytes <= 0 or binding.workload.bytes_out <= 0:
            report(
                f"transfer {binding.layer_name!r} moves "
                f"{spec.bytes} byte(s) — cross-provider traffic must "
                "be billed against the bandwidth model",
                layer=binding.layer_name,
            )
        covered.add((spec.tensor, spec.dst_provider))
    for layer in engine.graph.layers:
        consumer = by_name.get(layer.name)
        if consumer is None:
            continue
        for tensor in layer.inputs:
            if tensor in engine.graph.input_specs:
                continue
            producer = engine.graph.producer_of(tensor)
            if producer is None:
                continue
            source = by_name.get(producer.name)
            if source is None or source.provider == consumer.provider:
                continue
            if (tensor, consumer.provider) not in covered:
                report(
                    f"tensor {tensor!r} crosses providers "
                    f"{source.provider!r} -> {consumer.provider!r} "
                    f"(layer {layer.name!r}) without a transfer node",
                    layer=layer.name,
                )


@register_rule(
    ENGINE_RULES, "Q001", "missing-int8-scale",
    description="An INT8 layer lacks calibration scales (or carries "
    "non-positive ones).",
)
def _check_int8_scales(engine: Engine, report) -> None:
    int8_layers = {
        layer.name
        for layer in engine.graph.layers
        if layer.precision is DataType.INT8
    }
    for name, math in engine.math_config.per_layer.items():
        if math.precision is DataType.INT8:
            int8_layers.add(name)
    for name in sorted(int8_layers):
        math = engine.math_config.per_layer.get(name)
        if math is None or math.precision is not DataType.INT8:
            report(
                f"layer {name!r} is stored as INT8 but its math "
                "configuration does not quantize it",
                layer=name,
            )
            continue
        for attr in ("int8_scale_in", "int8_scale_w"):
            scale = getattr(math, attr)
            if scale is None or not scale > 0:
                report(
                    f"INT8 layer {name!r} has {attr}={scale!r} "
                    "(needs a positive calibration scale)",
                    layer=name,
                )


# ----------------------------------------------------------------------
# P: plan-document integrity
# ----------------------------------------------------------------------
@register_rule(
    PLAN_DOC_RULES, "P004", "unknown-kernel",
    description="A plan binding names a kernel absent from the "
    "catalog — the tactic cannot be re-instantiated on load.",
)
def _check_kernel_names(doc: Dict, report) -> None:
    from repro.runtime.providers import provider_kernel_by_name

    for entry in doc.get("bindings", []):
        for kernel_name in entry.get("kernels", []):
            try:
                DEFAULT_CATALOG.by_name(kernel_name)
                continue
            except KeyError:
                pass
            try:
                provider_kernel_by_name(kernel_name)
            except KeyError:
                report(
                    f"binding for layer {entry.get('layer')!r} names "
                    f"unknown kernel {kernel_name!r}",
                    layer=entry.get("layer"),
                )


@register_rule(
    PLAN_DOC_RULES, "P006", "bad-plan-metadata",
    description="The plan document is missing required metadata or "
    "carries values the loader cannot interpret.",
)
def _check_plan_metadata(doc: Dict, report) -> None:
    from repro.engine.builder import PrecisionMode
    from repro.engine.plan import _PLAN_VERSION

    missing = [key for key in _REQUIRED_PLAN_KEYS if key not in doc]
    if missing:
        report(f"plan document lacks key(s): {', '.join(missing)}")
    version = doc.get("plan_version")
    if "plan_version" in doc and version != _PLAN_VERSION:
        report(
            f"plan version {version!r} is not the supported "
            f"{_PLAN_VERSION}"
        )
    device = doc.get("device")
    if "device" in doc and device not in _KNOWN_DEVICES:
        report(
            f"plan targets unknown device {device!r} (known: "
            f"{', '.join(sorted(_KNOWN_DEVICES))})"
        )
    mode = doc.get("precision_mode")
    if "precision_mode" in doc and mode not in {
        m.value for m in PrecisionMode
    }:
        report(f"plan declares unknown precision mode {mode!r}")
    for name, math in doc.get("math", {}).items():
        try:
            DataType(math["precision"])
        except (KeyError, TypeError, ValueError):
            report(
                f"math entry for layer {name!r} has unusable precision "
                f"{math.get('precision') if isinstance(math, dict) else math!r}",
                layer=name,
            )


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def lint_engine(
    engine: Engine,
    select=None,
    ignore=None,
) -> LintReport:
    """Audit a built engine: its optimized graph plus its bindings."""
    report = LintReport(subject=f"engine {engine.name!r}")
    report.extend(lint_graph(engine.graph, select=select, ignore=ignore))
    report.extend(
        run_rules(
            ENGINE_RULES,
            engine,
            subject_name=report.subject,
            select=select,
            ignore=ignore,
        )
    )
    return report


def lint_plan(
    path: Union[str, Path],
    select=None,
    ignore=None,
) -> LintReport:
    """Audit a serialized ``.plan`` file.

    Stage 1 checks the raw document and the embedded graph without
    trusting the loader; stage 2 (only when stage 1 is clean) builds
    the engine from what stage 1 read and audits it.
    """
    return lint_and_load_plan(path, select=select, ignore=ignore)[0]


def lint_and_load_plan(
    path: Union[str, Path],
    select=None,
    ignore=None,
) -> Tuple[LintReport, Optional[Engine]]:
    """:func:`lint_plan` that also returns the audited engine.

    The file is read once: the engine is built from the document and
    graph that stage 1 checked, so the engine a caller gets is the one
    the audit saw.  It is None unless the report is ok.
    """
    from repro.engine.plan import engine_from_plan, read_plan

    path = Path(path)
    report = LintReport(subject=f"plan {path.name}")
    try:
        doc, graph = read_plan(path)
    except Exception as exc:  # corrupt archive: diagnose, don't crash
        _plan_failure(report, f"plan file is unreadable: {exc}")
        return report, None

    report.extend(
        run_rules(
            PLAN_DOC_RULES,
            doc,
            subject_name=report.subject,
            select=select,
            ignore=ignore,
        )
    )
    report.extend(lint_graph(graph, select=select, ignore=ignore))
    if not report.ok:
        return report, None  # do not deserialize a plan that fails stage 1

    try:
        engine = engine_from_plan(doc, graph)
    except Exception as exc:
        # Reachable when stage-1 rules were pruned via select/ignore:
        # deserialization hits what the doc rules would have flagged.
        _plan_failure(report, f"plan deserialization failed: {exc}")
        return report, None
    report.extend(
        run_rules(
            ENGINE_RULES,
            engine,
            subject_name=report.subject,
            select=select,
            ignore=ignore,
        )
    )
    return report, (engine if report.ok else None)


def _plan_failure(report: LintReport, message: str) -> None:
    """Record an unreadable or undeserializable plan as P006."""
    rule = PLAN_DOC_RULES["P006"]
    report.diagnostics.append(
        Diagnostic(
            rule_id=rule.rule_id,
            rule_name=rule.name,
            severity=rule.severity,
            message=message,
        )
    )


__all__ = [
    "ENGINE_RULES",
    "PLAN_DOC_RULES",
    "lint_engine",
    "lint_and_load_plan",
    "lint_plan",
]
