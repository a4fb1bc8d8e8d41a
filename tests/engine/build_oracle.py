"""Build oracle: :meth:`repro.engine.builder.EngineBuilder.build` must
give the same engine, or the same error text, and publish the same
build spans as the two pipelines of :mod:`tests.engine.reference_builder`.

An engine is compared field by field: every binding (kernels, workload,
tactic, provider, transfer), the math config, the weight chunks, the
size, the seed, the build time, the pass reports, the partition and the
engine graph with a digest of every weight array.  The spans are what a
``telemetry.session`` records during the build.

The grid is every zoo model on NX and AGX at fp32, fp16 and int8 (int8
calibrated) under the providers ``trt``, ``cuda``, ``cpu``,
``cuda,trt``, ``trt,cuda``, ``cpu,trt`` and ``auto``.  Four variants
run on NX at fp16 and int8 under ``trt``, ``cuda,trt`` and ``cpu``: a
cold build and a warm rebuild through one :class:`TimingCache`,
``verify_passes=False``, ``enable_horizontal_merge=False`` and
``analyze_dataflow=True``.  Tier-1 runs small graphs and a few zoo
models (``tests/engine/test_build_oracle.py``); CI runs the whole
grid::

    PYTHONPATH=src python -m tests.engine.build_oracle
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import json
import sys
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.analysis.engines import device_by_name
from repro.engine.builder import BuilderConfig, EngineBuilder, PrecisionMode
from repro.engine.timing_cache import TimingCache
from repro.graph.ir import Graph
from repro.hardware.specs import DeviceSpec
from repro.models import MODEL_REGISTRY, build_model, list_models

from tests.engine.reference_builder import ReferenceEngineBuilder
from tests.serving.fleet.fleet_oracle import first_difference

PRECISIONS = (PrecisionMode.FP32, PrecisionMode.FP16, PrecisionMode.INT8)
PROVIDERS = ("trt", "cuda", "cpu", "cuda,trt", "trt,cuda", "cpu,trt", "auto")
#: Config overrides of the variant builds; "warm" is a cold build and a
#: rebuild through the same timing cache.
VARIANTS: Dict[str, Dict[str, Any]] = {
    "warm": {},
    "no-verify": {"verify_passes": False},
    "no-merge": {"enable_horizontal_merge": False},
    "dataflow": {"analyze_dataflow": True},
}
VARIANT_PRECISIONS = (PrecisionMode.FP16, PrecisionMode.INT8)
VARIANT_PROVIDERS = ("trt", "cuda,trt", "cpu")


def _stable(value: Any) -> Any:
    """A JSON-able image of ``value`` that differs wherever it does:
    dataclasses field by field, arrays by dtype, shape and digest."""
    if isinstance(value, Graph):
        return {
            "name": value.name,
            "inputs": _stable(list(value.input_specs.values())),
            "outputs": list(value.output_names),
            "layers": _stable(value.layers),
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        doc = {"type": type(value).__name__}
        for f in dataclasses.fields(value):
            doc[f.name] = _stable(getattr(value, f.name))
        return doc
    if isinstance(value, np.ndarray):
        return {
            "dtype": str(value.dtype),
            "shape": list(value.shape),
            "sha256": hashlib.sha256(
                np.ascontiguousarray(value).tobytes()
            ).hexdigest(),
        }
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, dict):
        return {
            k if isinstance(k, str) else repr(k): _stable(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_stable(v) for v in value]
    if isinstance(value, float):
        return repr(value)
    if value is None or isinstance(value, (str, int)):
        return value
    return repr(value)


class _SpanRecorder:
    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []

    def on_event(self, event: Any) -> None:
        self.spans.append(_stable(event.to_dict()))


def _build(
    builder_cls: type, network: Graph, device: DeviceSpec,
    config: BuilderConfig, provider: str,
) -> Dict[str, Any]:
    recorder = _SpanRecorder()
    with telemetry.session(recorder):
        try:
            engine = builder_cls(device, config).build(network, provider)
            result: Dict[str, Any] = {"engine": _stable(engine)}
        except Exception as exc:  # the error text is compared
            result = {"error": f"{type(exc).__name__}: {exc}"}
    result["spans"] = recorder.spans
    return result


def outcome(
    builder_cls: type, network: Graph, device: DeviceSpec,
    config: BuilderConfig, provider: str, variant: str = "",
) -> str:
    """The canonical JSON of one build (two for ``"warm"``) with
    ``builder_cls``: the engine or the error, and the build spans."""
    config = dataclasses.replace(config, **VARIANTS.get(variant, {}))
    if variant != "warm":
        doc: Any = _build(builder_cls, network, device, config, provider)
    else:
        cache = TimingCache(device.name)
        config = dataclasses.replace(config, timing_cache=cache)
        doc = [
            _build(builder_cls, network, device, config, provider)
            for _ in ("cold", "warm")
        ]
        doc.append(_stable(cache))
    return json.dumps(doc, sort_keys=True)


def mismatch(
    network: Graph, device: DeviceSpec, config: BuilderConfig,
    provider: str, variant: str = "",
) -> Optional[str]:
    """The first difference between the live builder and the reference
    on one configuration (None when they agree)."""
    return first_difference(
        outcome(EngineBuilder, network, device, config, provider, variant),
        outcome(
            ReferenceEngineBuilder, network, device, config, provider,
            variant,
        ),
    )


def base_config(
    network: Graph, precision: PrecisionMode, seed: int = 7,
    input_name: str = "data",
) -> BuilderConfig:
    """The seeded build config of one grid point; INT8 builds are
    calibrated on a fixed batch, so their passes see real INT8 layers."""
    calibration = None
    if precision is PrecisionMode.INT8:
        shape = network.input_specs[input_name].shape
        calibration = np.random.default_rng(seed).standard_normal(
            (4,) + shape
        ).astype(np.float32)
    return BuilderConfig(
        precision=precision, seed=seed, input_name=input_name,
        calibration_batch=calibration,
    )


def zoo_cases(
    model: str,
    devices: Sequence[str] = ("NX", "AGX"),
    precisions: Sequence[PrecisionMode] = PRECISIONS,
    providers: Sequence[str] = PROVIDERS,
    variants: Sequence[str] = tuple(VARIANTS),
    seed: int = 7,
) -> Iterator[Tuple[str, Graph, DeviceSpec, BuilderConfig, str, str]]:
    """``(label, network, device, config, provider, variant)`` for every
    grid point of ``model``, then its variants on NX."""
    network = build_model(model, pretrained=False)
    input_name = MODEL_REGISTRY[model].input_name
    configs = {
        p: base_config(network, p, seed, input_name)
        for p in set(precisions) | set(VARIANT_PRECISIONS)
    }
    for device in devices:
        for precision in precisions:
            for provider in providers:
                yield (
                    f"{device} {precision.value} {provider}", network,
                    device_by_name(device), configs[precision], provider, "",
                )
    for variant in variants:
        for precision in VARIANT_PRECISIONS:
            for provider in VARIANT_PROVIDERS:
                yield (
                    f"NX {precision.value} {provider} {variant}", network,
                    device_by_name("NX"), configs[precision], provider,
                    variant,
                )


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
    parser.add_argument(
        "--providers", default=";".join(PROVIDERS),
        help="semicolon-separated provider specs (default: %(default)s)",
    )
    parser.add_argument(
        "--variants", default=",".join(VARIANTS),
        help="comma-separated variants, or '' for none "
        "(default: %(default)s)",
    )
    args = parser.parse_args(argv)
    precisions = [PrecisionMode(p) for p in args.precisions.split(",")]
    variants = [v for v in args.variants.split(",") if v]
    checked = failed = 0
    for model in args.models.split(","):
        builds = differ = 0
        for label, network, device, config, provider, variant in zoo_cases(
            model, args.devices.split(","), precisions,
            args.providers.split(";"), variants,
        ):
            diff = mismatch(network, device, config, provider, variant)
            builds += 1
            differ += diff is not None
            if diff is not None:
                print(f"{model} {label}: MISMATCH {diff}")
        checked += builds
        failed += differ
        print(f"{model:26s} {builds:4d} configurations, {differ} differ")
    print(f"build oracle: {failed} of {checked} configurations differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
