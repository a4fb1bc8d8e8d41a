"""Optimizer-pass invariants (rule family ``V``).

An optimizer pass may rewrite the graph aggressively — fuse, merge,
delete — but some facts must survive every pass: the graph's declared
outputs keep their names and shapes, the input contract is untouched,
and the pass introduces no new lint errors.  A pass that breaks one of
these invariants has *miscompiled* the network; in the paper's setting
that is only observable as wrong numerics or timing anomalies after
deployment.  Here it fails the build immediately, with a named
diagnostic.

:class:`PassInvariantGuard` wraps a pass function: it snapshots the
graph, runs the pass, re-snapshots, and evaluates the ``V`` rules over
the delta.  Any error-severity finding raises
:class:`PassInvariantViolation` — a :class:`~repro.graph.ir.GraphError`
subclass, so existing callers that guard builds against ``GraphError``
keep working.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.graph.ir import Graph, GraphError

from repro.lint.core import (
    LintReport,
    LintRule,
    register_rule,
    run_rules,
)
from repro.lint.graph_rules import GraphView, lint_graph

#: Rules over a before/after pass delta.
INVARIANT_RULES: Dict[str, LintRule] = {}


@dataclass
class GraphSnapshot:
    """The facts a pass must preserve, captured at one point in time."""

    output_names: List[str]
    output_shapes: Dict[str, Optional[Tuple[int, ...]]]
    input_specs: Dict[str, Tuple[Tuple[int, ...], str]]
    #: Error-severity lint findings per rule ID (counts, not locations:
    #: passes legitimately rename layers, so locations churn).
    error_counts: Dict[str, int] = field(default_factory=dict)
    #: One sample message per erroring rule, for the diagnostic text.
    error_samples: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def capture(cls, graph: Graph) -> "GraphSnapshot":
        view = GraphView(graph)
        shapes = view.shapes or {}
        snapshot = cls(
            output_names=list(graph.output_names),
            output_shapes={
                name: shapes.get(name) for name in graph.output_names
            },
            input_specs={
                name: (tuple(spec.shape), spec.dtype.value)
                for name, spec in graph.input_specs.items()
            },
        )
        for diag in lint_graph(graph).errors:
            snapshot.error_counts[diag.rule_id] = (
                snapshot.error_counts.get(diag.rule_id, 0) + 1
            )
            snapshot.error_samples.setdefault(diag.rule_id, diag.message)
        return snapshot


@dataclass
class PassDelta:
    """Subject of the ``V`` rules: one pass's before/after snapshots."""

    pass_name: str
    before: GraphSnapshot
    after: GraphSnapshot


class PassInvariantViolation(GraphError):
    """An optimizer pass broke a build invariant.

    Subclasses :class:`GraphError` so existing ``except GraphError``
    build guards also catch miscompiling passes.
    """

    def __init__(self, report: LintReport):
        self.report = report
        errors = report.errors
        head = errors[0].format() if errors else report.summary()
        more = f" (+{len(errors) - 1} more)" if len(errors) > 1 else ""
        super().__init__(f"{report.subject}: {head}{more}")


# ----------------------------------------------------------------------
# V rules
# ----------------------------------------------------------------------
@register_rule(
    INVARIANT_RULES, "V001", "output-renamed",
    description="A pass changed the graph's declared output names.",
)
def _check_outputs_stable(delta: PassDelta, report) -> None:
    if delta.before.output_names != delta.after.output_names:
        report(
            f"pass {delta.pass_name!r} changed graph outputs "
            f"{delta.before.output_names} -> {delta.after.output_names}"
        )


@register_rule(
    INVARIANT_RULES, "V002", "output-shape-changed",
    description="A pass changed the shape of a declared graph output.",
)
def _check_output_shapes_stable(delta: PassDelta, report) -> None:
    for name, before in delta.before.output_shapes.items():
        after = delta.after.output_shapes.get(name)
        if before is not None and after is not None and before != after:
            report(
                f"pass {delta.pass_name!r} changed output {name!r} from "
                f"{before} to {after}",
                tensor=name,
            )


@register_rule(
    INVARIANT_RULES, "V003", "input-spec-changed",
    description="A pass altered the graph's input contract.",
)
def _check_inputs_stable(delta: PassDelta, report) -> None:
    if delta.before.input_specs != delta.after.input_specs:
        report(
            f"pass {delta.pass_name!r} altered the input specs "
            f"{sorted(delta.before.input_specs)} -> "
            f"{sorted(delta.after.input_specs)}"
        )


@register_rule(
    INVARIANT_RULES, "V004", "new-lint-error",
    description="A pass introduced lint errors the input graph did "
    "not have.",
)
def _check_no_new_errors(delta: PassDelta, report) -> None:
    for rule_id, count in sorted(delta.after.error_counts.items()):
        baseline = delta.before.error_counts.get(rule_id, 0)
        if count > baseline:
            sample = delta.after.error_samples.get(rule_id, "")
            report(
                f"pass {delta.pass_name!r} introduced {count - baseline} "
                f"new {rule_id} error(s), e.g.: {sample}"
            )


# ----------------------------------------------------------------------
# guard
# ----------------------------------------------------------------------
class PassInvariantGuard:
    """Wraps optimizer passes in snapshot/lint invariant checking.

    One guard instance per build: the post-pass snapshot is reused as
    the next pass's baseline, so a pipeline of N passes costs N+1
    snapshots instead of 2N.
    """

    def __init__(self) -> None:
        self._last: Optional[Tuple[int, GraphSnapshot]] = None

    def run(self, graph: Graph, pass_fn: Callable, name: str = "") -> "PassReport":
        """Run ``pass_fn(graph)`` under invariant checking.

        Returns the pass's own report; raises
        :class:`PassInvariantViolation` if an invariant broke.
        """
        if self._last is not None and self._last[0] == id(graph):
            before = self._last[1]
        else:
            before = GraphSnapshot.capture(graph)
        pass_report = pass_fn(graph)
        after = GraphSnapshot.capture(graph)
        self._last = (id(graph), after)

        delta = PassDelta(
            pass_name=name or pass_report.pass_name,
            before=before,
            after=after,
        )
        findings = run_rules(
            INVARIANT_RULES,
            delta,
            subject_name=f"pass {delta.pass_name!r}",
        )
        if not findings.ok:
            raise PassInvariantViolation(findings)
        return pass_report


__all__ = [
    "INVARIANT_RULES",
    "GraphSnapshot",
    "PassDelta",
    "PassInvariantGuard",
    "PassInvariantViolation",
]
