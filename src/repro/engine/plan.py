"""Engine plan serialization.

A built engine can be saved as a single ``.plan`` file and reloaded —
possibly on another device, which is exactly the configuration the
paper studies in its cross-platform cases (an engine file compiled on
NX copied to and executed on AGX).  The plan records the optimized
graph, every kernel binding (by catalog name), the per-layer math
configuration, and the build metadata.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Tuple, Union

import numpy as np

from repro.graph.ir import Graph
from repro.graph.serialization import load_graph, save_graph
from repro.hardware.specs import XAVIER_AGX, XAVIER_NX
from repro.runtime.math_config import LayerMath, MathConfig

from repro.engine.builder import PrecisionMode
from repro.engine.engine import Engine, LayerBinding
from repro.engine.kernels import DEFAULT_CATALOG
from repro.graph.ir import DataType
from repro.graph.shapes import infer_shapes
from repro.hardware.workload import layer_workload

_PLAN_VERSION = 1

_DEVICES = {spec.name: spec for spec in (XAVIER_NX, XAVIER_AGX)}


def save_plan(engine: Engine, path: Union[str, Path]) -> None:
    """Serialize ``engine`` to a directory-free single file.

    Like :meth:`TimingCache.save`, the write is atomic (temp file +
    :func:`os.replace`): a crashed or concurrent save never leaves a
    truncated ``.plan`` behind.  Archive members are stored, not
    deflated (see :func:`repro.graph.serialization.save_graph`); the
    zip CRC-32 of every member still catches a damaged file on read.
    """
    path = Path(path)
    graph_buf = io.BytesIO()
    save_graph(engine.graph, graph_buf)
    doc = {
        "plan_version": _PLAN_VERSION,
        "name": engine.name,
        "source_network": engine.source_network,
        "device": engine.device.name,
        "precision_mode": engine.precision_mode.value,
        "build_seed": engine.build_seed,
        "size_bytes": engine.size_bytes,
        "weight_chunks": list(engine.weight_chunks),
        "input_name": engine.input_name,
        "build_time_us": engine.build_time_us,
        "bindings": [
            {
                "layer": b.layer_name,
                "kernels": [k.name for k in b.kernels],
                "provider": b.provider,
                **(
                    {"transfer": b.transfer.to_dict()}
                    if b.transfer is not None
                    else {}
                ),
            }
            for b in engine.bindings
        ],
        "math": {
            name: {
                "precision": m.precision.value,
                "split_k": m.split_k,
                "int8_scale_in": m.int8_scale_in,
                "int8_scale_w": m.int8_scale_w,
            }
            for name, m in engine.math_config.per_layer.items()
        },
    }
    partition = getattr(engine, "partition", None)
    if partition is not None:
        doc["partition"] = {
            "providers": list(partition.providers),
            "assignments": dict(partition.assignments),
            "transfers": [t.to_dict() for t in partition.transfers],
        }
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as f:
            np.savez(
                f,
                __plan__=np.frombuffer(
                    json.dumps(doc).encode("utf-8"), dtype=np.uint8
                ),
                __graph__=np.frombuffer(
                    graph_buf.getvalue(), dtype=np.uint8
                ),
            )
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def read_plan(path: Union[str, Path]) -> Tuple[Dict, Graph]:
    """Read a plan file's raw document and embedded graph.

    Unlike :func:`load_plan` this performs *no* interpretation beyond
    parsing — the linter uses it to audit a plan before trusting the
    loader with it, then hands the same ``(doc, graph)`` to
    :func:`engine_from_plan`.
    """
    with np.load(path, allow_pickle=False) as archive:
        doc = json.loads(bytes(archive["__plan__"]).decode("utf-8"))
        graph = load_graph(io.BytesIO(bytes(archive["__graph__"])))
    return doc, graph


def load_plan(path: Union[str, Path]) -> Engine:
    """Reload an engine plan saved by :func:`save_plan`."""
    return engine_from_plan(*read_plan(path))


def engine_from_plan(doc: Dict, graph: Graph) -> Engine:
    """Build the :class:`Engine` a plan document describes over its
    embedded ``graph`` (the pair :func:`read_plan` returns)."""
    if doc.get("plan_version") != _PLAN_VERSION:
        raise ValueError(
            f"unsupported plan version {doc.get('plan_version')}"
        )
    try:
        device = _DEVICES[doc["device"]]
    except KeyError:
        raise ValueError(f"unknown plan device {doc['device']!r}") from None

    math_config = MathConfig()
    for layer_name, m in doc["math"].items():
        math_config.per_layer[layer_name] = LayerMath(
            precision=DataType(m["precision"]),
            split_k=int(m["split_k"]),
            int8_scale_in=m["int8_scale_in"],
            int8_scale_w=m["int8_scale_w"],
        )

    shapes = infer_shapes(graph)
    act_dtype = (
        DataType.FP16
        if doc["precision_mode"] != "fp32"
        else DataType.FP32
    )
    bindings = []
    layer_by_name = {layer.name: layer for layer in graph.layers}
    for entry in doc["bindings"]:
        if "transfer" in entry:
            # Cross-provider transfer pseudo-binding: reconstructed
            # from its spec so the reloaded timeline is byte-identical.
            from repro.graph.partition import transfer_binding
            from repro.runtime.providers import TransferSpec

            bindings.append(
                transfer_binding(TransferSpec.from_dict(entry["transfer"]))
            )
            continue
        layer = layer_by_name[entry["layer"]]
        bindings.append(
            LayerBinding(
                layer_name=entry["layer"],
                kernels=[_kernel_by_name(k) for k in entry["kernels"]],
                workload=layer_workload(layer, shapes, act_dtype),
                tactic=None,
                provider=entry.get("provider", "trt"),
            )
        )

    fields = dict(
        name=doc["name"],
        source_network=doc["source_network"],
        device=device,
        graph=graph,
        bindings=bindings,
        math_config=math_config,
        size_bytes=int(doc["size_bytes"]),
        weight_chunks=[int(c) for c in doc["weight_chunks"]],
        input_name=doc["input_name"],
        build_seed=int(doc["build_seed"]),
        precision_mode=PrecisionMode(doc["precision_mode"]),
        build_time_us=float(doc["build_time_us"]),
    )
    if "partition" in doc:
        from repro.graph.partition import PartitionedEngine, PartitionPlan
        from repro.runtime.providers import TransferSpec

        block = doc["partition"]
        return PartitionedEngine(
            partition=PartitionPlan(
                providers=tuple(block["providers"]),
                assignments=dict(block["assignments"]),
                transfers=tuple(
                    TransferSpec.from_dict(t) for t in block["transfers"]
                ),
            ),
            **fields,
        )
    return Engine(**fields)


def _kernel_by_name(name: str):
    """Resolve a plan kernel name: the TRT tactic catalog first, then
    the provider kernel tables (CUDA/CPU generic kernels, transfers)."""
    try:
        return DEFAULT_CATALOG.by_name(name)
    except KeyError:
        from repro.runtime.providers import provider_kernel_by_name

        return provider_kernel_by_name(name)
