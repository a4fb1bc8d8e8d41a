"""``repro.lint`` — static verification for graphs, passes, and plans.

The paper's pipeline (Figure 2) silently transforms the network at
build time; a miscompile is only observable as wrong outputs or timing
anomalies afterwards.  This package closes that blind spot with a
rule-based static analyzer:

* :func:`lint_graph` — structural / shape / dtype / quantization /
  fusion rules over a graph IR (families ``G``, ``Q``, ``F``);
* :func:`lint_engine` — those plus binding and size-accounting rules
  over a built engine (family ``P``);
* :func:`lint_plan` — two-stage audit of a serialized ``.plan`` file;
  :func:`lint_and_load_plan` also returns the engine it audited;
* :class:`PassInvariantGuard` — snapshot/lint invariant checking
  around optimizer passes (family ``V``), raising
  :class:`PassInvariantViolation` when a pass miscompiles;
* :func:`lint_flow` — whole-program dataflow analysis over a graph or
  built engine (family ``D``): value-range propagation, activation
  liveness with a certified peak-memory bound, and def-use audits of
  the optimized schedule;
* :func:`lint_races` — AST-based concurrency analysis over our own
  serving-stack source (family ``R``): shared-state maps, lock
  discipline, and lock-order/deadlock checking;
* :class:`~repro.lint.analyze.AnalyzeReport` — multi-subject
  aggregation with baseline suppression and SARIF export (the
  ``trtsim analyze`` document model);
* :func:`check_import` — the single validation entry point every
  framework frontend calls after constructing a graph.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.graph.ir import Graph, GraphError

from repro.lint.core import (
    Diagnostic,
    LintReport,
    LintRule,
    Severity,
    run_rules,
)
from repro.lint.analyze import (
    ANALYZE_REPORT_SCHEMA,
    AnalyzeReport,
    Baseline,
    update_baseline,
)
from repro.lint.flow import (
    FLOW_RULES,
    DataflowViolation,
    FlowView,
    lint_flow,
)
from repro.lint.graph_rules import GRAPH_RULES, GraphView, lint_graph
from repro.lint.invariants import (
    INVARIANT_RULES,
    GraphSnapshot,
    PassDelta,
    PassInvariantGuard,
    PassInvariantViolation,
)
from repro.lint.plan_rules import (
    ENGINE_RULES,
    PLAN_DOC_RULES,
    lint_and_load_plan,
    lint_engine,
    lint_plan,
)
from repro.lint.races import RACE_RULES, SourceModel, lint_races


def all_rules() -> Dict[str, LintRule]:
    """Every registered rule across all families, keyed by rule ID."""
    merged: Dict[str, LintRule] = {}
    merged.update(GRAPH_RULES)
    merged.update(ENGINE_RULES)
    merged.update(PLAN_DOC_RULES)
    merged.update(INVARIANT_RULES)
    merged.update(FLOW_RULES)
    merged.update(RACE_RULES)
    return dict(sorted(merged.items()))


def check_import(
    graph: Graph, framework: Optional[str] = None
) -> LintReport:
    """Lint a freshly imported graph and gate on error findings.

    Every framework frontend calls this once its graph is assembled —
    the shared replacement for the frontends' old per-framework
    ``validate`` epilogues.  Unreachable layers (``G004``) are only
    warnings here: imported models legitimately carry dead training
    heads, which dead-layer removal strips at build time.

    Returns the report (also stored as ``graph.lint_report``); raises
    :class:`~repro.graph.ir.GraphError` if any error-severity rule
    fired.
    """
    origin = f" (imported from {framework})" if framework else ""
    report = lint_graph(graph)
    graph.lint_report = report
    if not report.ok:
        first = report.errors[0]
        more = (
            f" (+{len(report.errors) - 1} more)"
            if len(report.errors) > 1
            else ""
        )
        raise GraphError(
            f"graph {graph.name!r}{origin} fails lint: "
            f"{first.format()}{more}"
        )
    return report


__all__ = [
    "ANALYZE_REPORT_SCHEMA",
    "AnalyzeReport",
    "Baseline",
    "DataflowViolation",
    "Diagnostic",
    "FlowView",
    "LintReport",
    "LintRule",
    "Severity",
    "SourceModel",
    "GraphView",
    "GraphSnapshot",
    "PassDelta",
    "PassInvariantGuard",
    "PassInvariantViolation",
    "GRAPH_RULES",
    "ENGINE_RULES",
    "PLAN_DOC_RULES",
    "INVARIANT_RULES",
    "FLOW_RULES",
    "RACE_RULES",
    "all_rules",
    "check_import",
    "lint_graph",
    "lint_engine",
    "lint_and_load_plan",
    "lint_plan",
    "lint_flow",
    "lint_races",
    "run_rules",
    "update_baseline",
]
