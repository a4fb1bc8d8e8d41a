"""Reference scheduling: the insertion-order sweeps that
:meth:`repro.graph.ir.Graph.schedule` replaced, kept as the oracle.

:func:`toposort` re-scans the pending layers in insertion order until a
sweep schedules nothing, which is O(V^2) on a chain inserted backwards.
:func:`unschedulable` is the same fixpoint with inputs that nothing
defines treated as ready: the set the graph linter's ``cyclic_layers``
used to report.  ``tests/graph/test_schedule_oracle.py`` and
``python -m tests.graph.schedule_oracle`` compare the heap scheduler
against both.
"""

from __future__ import annotations

from typing import List, Set

from repro.graph.ir import Graph, GraphError, Layer


def toposort(graph: Graph) -> List[Layer]:
    """Layers in dependency order; raises :class:`GraphError` on cycles
    or references to undefined tensors."""
    produced = dict(graph.input_specs)  # tensor name -> anything truthy
    pending = list(graph.layers)
    ordered: List[Layer] = []
    while pending:
        progressed = False
        still_pending = []
        for layer in pending:
            if all(t in produced for t in layer.inputs):
                ordered.append(layer)
                for out in layer.outputs:
                    produced[out] = True
                progressed = True
            else:
                still_pending.append(layer)
        if not progressed:
            missing = {
                t
                for layer in still_pending
                for t in layer.inputs
                if t not in produced
            }
            raise GraphError(
                f"graph {graph.name!r} has a cycle or undefined tensors: "
                f"{sorted(missing)}"
            )
        pending = still_pending
    return ordered


def unschedulable(graph: Graph) -> List[str]:
    """Sorted names of the layers that can never be scheduled even
    though every input they read is defined somewhere."""
    defined: Set[str] = set(graph.input_specs)
    for layer in graph.layers:
        defined.update(layer.outputs)
    remaining = {
        layer.name: {
            t
            for t in layer.inputs
            if t in defined and t not in graph.input_specs
        }
        for layer in graph.layers
    }
    produced: Set[str] = set(graph.input_specs)
    changed = True
    while changed:
        changed = False
        for layer in graph.layers:
            if layer.name not in remaining:
                continue
            if all(t in produced for t in remaining[layer.name]):
                produced.update(layer.outputs)
                del remaining[layer.name]
                changed = True
    return sorted(remaining)
