"""Engine inspector: per-layer JSON report (TensorRT's EngineInspector).

Answers "what did the builder actually do to my network?" — per bound
layer: the chosen kernel, its precision and tile configuration, the
predicted cost breakdown on the build device, and the stored weight
footprint.  The report also embeds the static verifier's verdict
(``repro.lint``) so downstream tooling sees lint status alongside the
layer/tactic info.  Output is a plain dict (JSON-serializable) so it
can feed dashboards or diffing tools.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.hardware.cost import cost_table
from repro.hardware.specs import DeviceSpec

from repro.engine.builder import _stored_weight_bytes
from repro.engine.engine import Engine
from repro.lint.plan_rules import lint_engine


def inspect_engine(
    engine: Engine,
    device: Optional[DeviceSpec] = None,
    clock_mhz: Optional[float] = None,
) -> Dict:
    """A structured report over every layer binding of ``engine``."""
    device = device or engine.device
    clock = clock_mhz or device.max_gpu_clock_mhz
    layer_by_name = {layer.name: layer for layer in engine.graph.layers}
    # One row per kernel and per transfer binding, in binding order;
    # each kernel's prediction is the base duration the timeline bills.
    table = cost_table(engine.bindings, device)
    terms = table.kernel_terms(clock, 1.0, 1)
    launch = terms[0]
    compute, bandwidth, latency = (column.tolist() for column in terms[1:])
    predicted = table.kernel_us(terms).tolist()
    row = 0

    layers: List[Dict] = []
    total_us = 0.0
    transfer_us = 0.0
    num_transfers = 0
    for binding in engine.bindings:
        spec = getattr(binding, "transfer", None)
        if spec is not None:
            # Cross-provider transfer pseudo-binding: no graph layer
            # backs it, and it is billed as a DtoD memcpy, not a kernel.
            from repro.hardware.memory import MemcpyModel

            xfer = MemcpyModel(device).single(binding.workload.bytes_out)
            layers.append(
                {
                    "layer": binding.layer_name,
                    "kind": "transfer",
                    "provider": binding.provider,
                    "transfer": {
                        "tensor": spec.tensor,
                        "from": spec.src_provider,
                        "to": spec.dst_provider,
                        "bytes": binding.workload.bytes_out,
                        "predicted_us": round(xfer.total_us, 3),
                    },
                }
            )
            transfer_us += xfer.total_us
            num_transfers += 1
            row += 1
            continue
        layer = layer_by_name[binding.layer_name]
        kernel_entries = []
        for kernel in binding.kernels:
            kernel_entries.append(
                {
                    "name": kernel.name,
                    "precision": kernel.precision.value,
                    "tile": [kernel.tile_m, kernel.tile_n],
                    "split_k": kernel.split_k,
                    "tensor_cores": kernel.uses_tensor_cores,
                    "predicted_us": round(predicted[row], 3),
                    "breakdown_us": {
                        "launch": round(launch, 3),
                        "compute": round(compute[row], 3),
                        "bandwidth": round(bandwidth[row], 3),
                        "latency": round(latency[row], 3),
                    },
                }
            )
            total_us += predicted[row]
            row += 1
        entry = {
            "layer": binding.layer_name,
            "kind": layer.kind.value,
            "provider": getattr(binding, "provider", "trt"),
            "gemm": {
                "m": binding.workload.gemm_m,
                "n": binding.workload.gemm_n,
                "k": binding.workload.gemm_k,
            },
            "flops": binding.workload.flops,
            "bytes": binding.workload.total_bytes,
            "kernels": kernel_entries,
        }
        if binding.tactic is not None:
            entry["weight_bytes_stored"] = _stored_weight_bytes(
                layer, binding.tactic.kernel
            )
            entry["auction"] = {
                "candidates_timed": binding.tactic.candidates_timed,
                "measured_us": round(binding.tactic.measured_us, 3),
                "true_us": round(binding.tactic.true_us, 3),
            }
        layers.append(entry)

    lint_report = lint_engine(engine)
    partition = getattr(engine, "partition", None)
    report_providers = (
        list(partition.providers)
        if partition is not None
        else sorted({getattr(b, "provider", "trt") for b in engine.bindings})
    )
    return {
        "engine": engine.name,
        "built_for": engine.device.name,
        "inspected_on": device.name,
        "clock_mhz": clock,
        "precision_mode": engine.precision_mode.value,
        "plan_size_bytes": engine.size_bytes,
        "num_layers": len(layers),
        "num_kernel_invocations": engine.num_kernels,
        "predicted_kernel_us": round(total_us, 3),
        "providers": report_providers,
        "num_transfers": num_transfers,
        "predicted_transfer_us": round(transfer_us, 3),
        "lint": {
            "status": "ok" if lint_report.ok else "fail",
            "errors": len(lint_report.errors),
            "warnings": len(lint_report.warnings),
            "diagnostics": [d.to_dict() for d in lint_report.diagnostics],
        },
        "layers": layers,
    }


def inspect_engine_json(engine: Engine, **kwargs) -> str:
    """The inspector report as pretty-printed JSON."""
    return json.dumps(inspect_engine(engine, **kwargs), indent=2)
