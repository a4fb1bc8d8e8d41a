"""Scheduling oracle: the heap scheduler behind
:meth:`repro.graph.ir.Graph.toposort` must give the same layer order,
the same :class:`~repro.graph.ir.GraphError` text and the same set of
unschedulable layers as the insertion-order sweeps of
:mod:`tests.graph.reference_graph`.

Tier-1 runs random graphs and four zoo models
(``tests/graph/test_schedule_oracle.py``); CI runs the whole zoo, source
and engine graphs on NX and AGX at fp32, fp16 and int8::

    PYTHONPATH=src python -m tests.graph.schedule_oracle
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.engines import device_by_name
from repro.engine.builder import BuilderConfig, EngineBuilder, PrecisionMode
from repro.graph.ir import Graph, GraphError
from repro.lint import GraphView
from repro.models import MODEL_REGISTRY, build_model, list_models

from tests.graph import reference_graph

PRECISIONS = (PrecisionMode.FP32, PrecisionMode.FP16, PrecisionMode.INT8)


def _outcome(toposort, graph: Graph) -> Tuple[Optional[List[str]], str]:
    try:
        return [layer.name for layer in toposort(graph)], ""
    except GraphError as exc:
        return None, str(exc)


def mismatches(graph: Graph) -> List[str]:
    """What differs between the heap scheduler and the reference sweeps
    on ``graph``: any of ``order``, ``error`` and ``unschedulable``
    (empty when they agree)."""
    got_order, got_error = _outcome(Graph.toposort, graph)
    want_order, want_error = _outcome(reference_graph.toposort, graph)
    problems = []
    if got_order != want_order:
        problems.append("order")
    if got_error != want_error:
        problems.append("error")
    blocked = sorted(layer.name for layer in GraphView(graph).unschedulable)
    if blocked != reference_graph.unschedulable(graph):
        problems.append("unschedulable")
    return problems


def zoo_graphs(
    model: str,
    devices: Sequence[str] = ("NX",),
    precisions: Sequence[PrecisionMode] = PRECISIONS,
    seed: int = 7,
) -> Iterator[Tuple[str, Graph]]:
    """``(label, graph)`` for the source graph of ``model`` and its
    engine graph on each device at each precision.  INT8 builds are
    calibrated, so their passes see real INT8 layers."""
    source = build_model(model, pretrained=False)
    yield "source", source
    name = MODEL_REGISTRY[model].input_name
    shape = source.input_specs[name].shape
    calibration = np.random.default_rng(seed).standard_normal(
        (4,) + shape
    ).astype(np.float32)
    for device in devices:
        for precision in precisions:
            config = BuilderConfig(
                precision=precision,
                seed=seed,
                input_name=name,
                calibration_batch=(
                    calibration
                    if precision is PrecisionMode.INT8 else None
                ),
            )
            engine = EngineBuilder(device_by_name(device), config).build(
                source
            )
            yield f"{device} {precision.value}", engine.graph


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--models", default=",".join(list_models()),
        help="comma-separated zoo models (default: all 13)",
    )
    parser.add_argument(
        "--devices", default="NX,AGX",
        help="comma-separated devices (default: NX,AGX)",
    )
    parser.add_argument(
        "--precisions", default="fp32,fp16,int8",
        help="comma-separated precisions (default: fp32,fp16,int8)",
    )
    args = parser.parse_args(argv)
    precisions = [PrecisionMode(p) for p in args.precisions.split(",")]
    checked = failed = 0
    for model in args.models.split(","):
        for label, graph in zoo_graphs(
            model, args.devices.split(","), precisions
        ):
            bad = mismatches(graph)
            checked += 1
            failed += bool(bad)
            status = "MISMATCH " + ",".join(bad) if bad else "ok"
            print(f"{model:26s} {label:10s} {len(graph):4d} layers: {status}")
    print(f"schedule oracle: {failed} of {checked} graphs differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
