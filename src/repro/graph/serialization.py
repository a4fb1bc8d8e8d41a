"""Graph persistence: JSON topology + NPZ weight archive in one ``.npz``.

The on-disk format keeps the topology as a JSON document stored inside
the same NPZ archive as the weights, so a saved model is a single file.
This mirrors how real engines serialize plans (one opaque blob) while
staying debuggable (the JSON half is human-readable).
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro.graph.ir import DataType, Graph, Layer, LayerKind, TensorSpec

_FORMAT_VERSION = 1


def _graph_to_doc(graph: Graph) -> Dict:
    return {
        "format_version": _FORMAT_VERSION,
        "name": graph.name,
        "inputs": [
            {"name": s.name, "shape": list(s.shape), "dtype": s.dtype.value}
            for s in graph.input_specs.values()
        ],
        "outputs": list(graph.output_names),
        "layers": [
            {
                "name": layer.name,
                "kind": layer.kind.value,
                "inputs": layer.inputs,
                "outputs": layer.outputs,
                "attrs": layer.attrs,
                "precision": layer.precision.value,
                "weight_keys": sorted(layer.weights),
            }
            for layer in graph.layers
        ],
    }


def save_graph(graph: Graph, path: Union[str, Path, io.IOBase]) -> None:
    """Serialize ``graph`` (topology + weights) to ``path`` — a
    filesystem path or a writable binary file-like object (.npz).

    Members are stored, not deflated: deflate shrinks float32 weights by
    only a few percent and costs most of the save.  :func:`load_graph`
    reads either encoding.
    """
    doc = _graph_to_doc(graph)
    arrays: Dict[str, np.ndarray] = {
        "__topology__": np.frombuffer(
            json.dumps(doc).encode("utf-8"), dtype=np.uint8
        )
    }
    for layer in graph.layers:
        for key, value in layer.weights.items():
            arrays[f"w::{layer.name}::{key}"] = value
    if hasattr(path, "write"):
        np.savez(path, **arrays)
    else:
        with open(path, "wb") as f:
            np.savez(f, **arrays)


def load_graph(path: Union[str, Path, io.IOBase]) -> Graph:
    """Load a graph previously written by :func:`save_graph` from a
    path or a readable binary file-like object."""
    with np.load(path, allow_pickle=False) as archive:
        doc = json.loads(bytes(archive["__topology__"]).decode("utf-8"))
        if doc.get("format_version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported graph format version {doc.get('format_version')}"
            )
        graph = Graph(
            doc["name"],
            [
                TensorSpec(
                    spec["name"], tuple(spec["shape"]), DataType(spec["dtype"])
                )
                for spec in doc["inputs"]
            ],
        )
        for entry in doc["layers"]:
            weights = {
                key: archive[f"w::{entry['name']}::{key}"]
                for key in entry["weight_keys"]
            }
            graph.add_layer(
                Layer(
                    name=entry["name"],
                    kind=LayerKind(entry["kind"]),
                    inputs=list(entry["inputs"]),
                    outputs=list(entry["outputs"]),
                    attrs=dict(entry["attrs"]),
                    weights=weights,
                    precision=DataType(entry["precision"]),
                )
            )
        for out in doc["outputs"]:
            graph.mark_output(out)
    graph.validate(allow_dead=True)
    return graph


def roundtrip_bytes(graph: Graph) -> bytes:
    """Serialize to an in-memory buffer; used for size accounting."""
    buf = io.BytesIO()
    save_graph(graph, buf)
    return buf.getvalue()
