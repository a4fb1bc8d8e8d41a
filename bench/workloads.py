"""The five benchmark workloads.

Each workload is a batch job over the simulator at a fixed size.
``setup(seed)`` does what a user has done before the first study runs:
imports, graph construction, engine builds and engine-store warm-up.
``rep()`` runs the study once and returns ``(ops, digest)``: the
number of operations completed and a SHA-256 over the simulated
outputs (latency samples, kernel names, output-tensor bytes, report
JSON).  The seed feeds engine build seeds, traffic and fault-plan
seeds, and input tensors, so the same seed gives the same digest.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import shutil
import tempfile
from typing import Any, Dict, List, Tuple, Type

import numpy as np

DEFAULT_SEED = 7


def canonical(obj: Any) -> Any:
    """A JSON-serialisable, order-stable view of a result object."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return canonical(obj.value)
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        return {
            "dtype": str(data.dtype),
            "shape": list(data.shape),
            "sha256": hashlib.sha256(data.tobytes()).hexdigest(),
        }
    if isinstance(obj, np.generic):
        return obj.item()
    if dataclasses.is_dataclass(obj):
        return {
            f.name: canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    return canonical(vars(obj))


class Digest:
    """SHA-256 over a sequence of canonicalised results."""

    def __init__(self) -> None:
        self._sha = hashlib.sha256()

    def add(self, obj: Any) -> None:
        text = obj if isinstance(obj, str) else json.dumps(
            canonical(obj), sort_keys=True, separators=(",", ":")
        )
        self._sha.update(text.encode("utf-8"))
        self._sha.update(b"\n")

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


class Workload:
    """One benchmark workload: ``setup`` once, then ``rep`` repeatedly."""

    name = ""
    why = ""

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def rep(self) -> Tuple[int, str]:
        raise NotImplementedError


# ----------------------------------------------------------------------
class PaperTiming(Workload):
    """Tables VIII-XIII, the clock and batch sweeps and Figs. 3/4 on TRT
    engines; Tables VIII-X and the sweeps again on cuda and cpu provider
    engines.  Op = one simulated inference."""

    name = "paper_timing"
    why = (
        "paper timing studies on trt, cuda and cpu engines: timeline "
        "simulation and profiling only, no numeric forward"
    )

    def setup(self, seed: int) -> None:
        from repro.analysis.engines import EngineFarm
        from repro.analysis.latency import LATENCY_MODELS

        self.trt = EngineFarm(pretrained=False, base_seed=seed)
        self.providers = [
            EngineFarm(pretrained=False, base_seed=seed, provider=name)
            for name in ("cuda", "cpu")
        ]
        for model in LATENCY_MODELS:
            self.trt.engine(model, "NX")
            self.trt.engines(model, "AGX", 3)  # Table XII's three builds
            for farm in self.providers:
                farm.engine(model, "NX")
                farm.engine(model, "AGX")
        self.ops = 0

    @staticmethod
    def _sweeps(farm: Any, digest: Digest) -> None:
        from repro.analysis import batching, dvfs
        from repro.analysis.latency import LATENCY_MODELS

        for model in LATENCY_MODELS:
            for device in ("NX", "AGX"):
                digest.add(dvfs.clock_sweep(model, device, farm))
                digest.add(
                    batching.batch_sweep(model, device, farm=farm).to_dict()
                )

    def _study(self) -> str:
        from repro.analysis import concurrency, latency
        from repro.caching import clear_caches

        clear_caches()  # every study is a fresh process
        digest = Digest()
        for farm in (self.trt, *self.providers):
            digest.add(latency.latency_matrix(farm, with_nvprof=True))
            digest.add(latency.latency_matrix(farm, with_nvprof=False))
            digest.add(latency.memcpy_split(farm))
            self._sweeps(farm, digest)
        digest.add(latency.kernels_slower_on_agx(self.trt))
        digest.add(latency.engine_variance(self.trt))
        digest.add(latency.kernel_invocation_variance(self.trt))
        digest.add(concurrency.figure3(self.trt))
        digest.add(concurrency.figure4(self.trt))
        return digest.hexdigest()

    def rep(self) -> Tuple[int, str]:
        if not self.ops:  # the warm-up rep counts simulated inferences
            from bench.tracing import count_calls

            with count_calls("repro.hardware.gpu:simulate_inference") as n:
                digest = self._study()
            self.ops = n[0]
            return self.ops, digest
        return self.ops, self._study()


# ----------------------------------------------------------------------
class ZooForward(Workload):
    """Numeric forward of all 13 zoo models at fp32, fp16 and calibrated
    INT8 on NX engines, batch 8, caches warm.  Op = one image."""

    name = "zoo_forward"
    why = (
        "numeric forward of the 13-model zoo at fp32, fp16 and int8: "
        "runtime ops do the work, no timeline simulation"
    )
    batch = 8

    def setup(self, seed: int) -> None:
        from repro.analysis.engines import EngineFarm
        from repro.engine.builder import PrecisionMode
        from repro.models import MODEL_REGISTRY, list_models

        rng = np.random.default_rng(seed)
        farms = [
            EngineFarm(precision=p, pretrained=False, base_seed=seed)
            for p in (PrecisionMode.FP32, PrecisionMode.FP16,
                      PrecisionMode.INT8)
        ]
        self.runs: List[Tuple[Any, str, np.ndarray]] = []
        for model in list_models():
            name = MODEL_REGISTRY[model].input_name
            shape = farms[0].graph(model).input_specs[name].shape
            calibration = rng.standard_normal((4,) + shape).astype(np.float32)
            images = rng.standard_normal(
                (self.batch,) + shape
            ).astype(np.float32)
            for farm in farms:
                engine = farm.engine(
                    model, "NX",
                    calibration_batch=(
                        calibration
                        if farm.precision is PrecisionMode.INT8 else None
                    ),
                )
                self.runs.append(
                    (engine.create_execution_context(), name, images)
                )

    def rep(self) -> Tuple[int, str]:
        digest = Digest()
        for context, name, images in self.runs:
            digest.add(context.execute(**{name: images}).outputs)
        return len(self.runs) * self.batch, digest.hexdigest()


# ----------------------------------------------------------------------
class ZooBuild(Workload):
    """Per zoo model: a frontend import, a store miss and hit at NX
    fp16, and cold builds at NX int8, AGX fp16 and AGX int8, each saved
    and reloaded as a plan.  Caches are cleared per rep.
    Op = one engine acquired."""

    name = "zoo_build"
    why = (
        "frontend import, engine store miss and hit, cold builds and "
        "plan round trips: the build stack does the work"
    )

    def setup(self, seed: int) -> None:
        import repro.engine.plan  # noqa: F401  (imports are set-up)
        import repro.engine.store  # noqa: F401
        import repro.models  # noqa: F401

        self.seed = seed

    def rep(self) -> Tuple[int, str]:
        from repro.analysis.engines import device_by_name
        from repro.caching import clear_caches
        from repro.engine import plan, store
        from repro.engine.builder import (
            BuilderConfig,
            EngineBuilder,
            PrecisionMode,
        )
        from repro.models import MODEL_REGISTRY, build_model, list_models

        clear_caches()
        digest = Digest()
        ops = 0
        root = tempfile.mkdtemp(prefix="zoo_build-")
        try:
            engines = store.EngineStore(os.path.join(root, "store"))
            for index, model in enumerate(list_models()):
                graph = build_model(model, pretrained=False, cache=False)
                name = MODEL_REGISTRY[model].input_name
                shape = graph.input_specs[name].shape
                fp16 = BuilderConfig(seed=self.seed, input_name=name)
                for _ in range(2):  # a miss, then a hit
                    engine, result = engines.get_or_build(
                        graph, device_by_name("NX"), fp16
                    )
                    digest.add([result.outcome, engine.kernel_names()])
                    ops += 1
                calibration = np.random.default_rng(
                    (self.seed, index)
                ).standard_normal((4,) + shape).astype(np.float32)
                for device, precision in (
                    ("NX", PrecisionMode.INT8),
                    ("AGX", PrecisionMode.FP16),
                    ("AGX", PrecisionMode.INT8),
                ):
                    config = BuilderConfig(
                        precision=precision,
                        seed=self.seed,
                        input_name=name,
                        calibration_batch=(
                            calibration
                            if precision is PrecisionMode.INT8 else None
                        ),
                    )
                    engine = EngineBuilder(
                        device_by_name(device), config
                    ).build(graph)
                    path = os.path.join(
                        root, f"{model}-{device}-{precision.value}.plan"
                    )
                    plan.save_plan(engine, path)
                    loaded = plan.load_plan(path)
                    digest.add([
                        engine.kernel_names(), engine.size_bytes,
                        loaded.kernel_names(), loaded.size_bytes,
                    ])
                    ops += 1
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return ops, digest.hexdigest()


# ----------------------------------------------------------------------
FLEET_SPEC = "4xNX+2xAGX"
FLEET_MODELS = ("resnet18",)
FLEET_FALLBACKS = ("mtcnn",)
FLEET_CLOCK_MHZ = 230.0
#: Offered load of the fleet compares, requests/s: 0.8 of the capacity
#: of the CI fleet at seed 7.  The capacity follows the engines each
#: seed builds (5.9k-7.4k rps at 0.8 over seeds 0-9), and the request
#: count sets the ops of a rep, so the rate is fixed rather than derived.
FLEET_RPS = 6450.0


def _fleet_traffic(farm: Any, seed: int) -> Any:
    """The CI fleet compare's traffic (4 s, SLO from the fleet) drawn
    from ``seed`` at :data:`FLEET_RPS`, without bursts: their seeded
    count alone swings the request count by about 20% (15.5k-24.4k
    requests over seeds 0-9 at one rate, 0.7% without bursts)."""
    from repro.analysis.fleet import build_fleet, default_traffic

    devices = build_fleet(
        FLEET_SPEC, FLEET_MODELS, FLEET_FALLBACKS, farm=farm, seed=seed,
        clock_mhz=FLEET_CLOCK_MHZ,
    )
    traffic = default_traffic(devices, duration_s=4.0, seed=seed)
    return dataclasses.replace(traffic, base_rps=FLEET_RPS, burst_prob=0.0)


def _fleet_compare(farm: Any, traffic: Any, scenario: str, seed: int) -> Any:
    """The CI fleet compare (resilient plus blind) under ``scenario``."""
    from repro.analysis.fleet import compare_resilience
    from repro.faults import canned_fleet_plan

    return compare_resilience(
        spec=FLEET_SPEC,
        models=FLEET_MODELS,
        fallbacks=FLEET_FALLBACKS,
        plan=canned_fleet_plan(scenario, seed=seed),
        policy="least-loaded",
        traffic=traffic,
        seed=seed,
        farm=farm,
        clock_mhz=FLEET_CLOCK_MHZ,
    )


def _store_farm(seed: int, models: Tuple[str, ...], devices: Tuple[str, ...]):
    """A store-backed farm with the pinned engines of ``models`` warm."""
    from repro.analysis.engines import EngineFarm
    from repro.engine.store import EngineStore

    farm = EngineFarm(
        pretrained=False,
        base_seed=seed,
        store=EngineStore(tempfile.mkdtemp(prefix="engine-store-")),
    )
    for model in models:
        for device in devices:
            farm.pinned_engine(model, device)
    return farm


class ServeFaults(Workload):
    """The CI fleet chaos compare plus the ADAS supervisor under four
    fault plans.  Op = one simulated request."""

    name = "serve_faults"
    why = (
        "fleet chaos compare and ADAS supervisor under four fault plans: "
        "failover, hedging, retries and the fault-hook timeline"
    )
    adas_scenarios = ("thermal_oom", "flaky_kernels", "nan_storm",
                      "memcpy_stall")

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.farm = _store_farm(
            seed, FLEET_MODELS + FLEET_FALLBACKS, ("NX", "AGX")
        )
        self.traffic = _fleet_traffic(self.farm, seed)
        self.detector = self.farm.engine("tiny_yolov3", "NX")
        self.fallback = self.farm.engine("mtcnn", "NX")

    def rep(self) -> Tuple[int, str]:
        from repro.apps.adas import run_fault_scenario
        from repro.caching import clear_caches
        from repro.faults import canned_plan

        clear_caches()
        digest = Digest()
        fleet = _fleet_compare(
            self.farm, self.traffic, "fleet_chaos", self.seed
        )
        digest.add(fleet.to_json())
        ops = fleet.resilient.requests + fleet.baseline.requests
        for scenario in self.adas_scenarios:
            comparison = run_fault_scenario(
                self.detector,
                canned_plan(scenario, seed=self.seed),
                fallbacks=[self.fallback],
                frames=60,
                seed=self.seed,
            )
            for report in (comparison.supervised, comparison.unsupervised):
                digest.add(report.to_json(include_records=True))
                digest.add(report.fault_log)
                ops += report.requests
        return ops, digest.hexdigest()


class ServeSteady(Workload):
    """The same serving layers without faults: the CI placement-advisor
    compare, the fleet at ``fleet_none``, 4-tenant co-location in both
    modes and a batched 4-stream supervisor.  Op = one request or
    frame."""

    name = "serve_steady"
    why = (
        "placement compare, fault-free fleet, co-location and batched "
        "supervisor: queueing and batching with no failover"
    )
    placement_models = ("vgg16", "alexnet", "pednet", "googlenet",
                        "mobilenet_v1", "mtcnn")
    colocated = ("alexnet", "googlenet", "mobilenet_v1", "mtcnn")
    colocation_frames = 200

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.farm = _store_farm(
            seed, FLEET_MODELS + FLEET_FALLBACKS, ("NX", "AGX")
        )
        self.traffic = _fleet_traffic(self.farm, seed)
        self.engines = {
            model: self.farm.pinned_engine(model, "NX")
            for model in self.placement_models
        }

    def rep(self) -> Tuple[int, str]:
        from repro.analysis.fleet import compare_placement
        from repro.caching import clear_caches
        from repro.serving import (
            BatchingConfig,
            ColocationConfig,
            ColocationScheduler,
            InferenceSupervisor,
            StreamSpec,
            TenantSpec,
        )
        from repro.serving.colocation import MODES

        clear_caches()
        digest = Digest()
        placement = compare_placement(
            spec="2xNX",
            models=self.placement_models,
            policy="least-loaded",
            duration_s=8.0,
            utilization=0.95,
            deadline_slack=4.0,
            seed=self.seed,
            farm=self.farm,
        )
        digest.add(placement.to_json())
        ops = placement.advisor.requests + placement.round_robin.requests

        fleet = _fleet_compare(
            self.farm, self.traffic, "fleet_none", self.seed
        )
        digest.add(fleet.to_json())
        ops += fleet.resilient.requests + fleet.baseline.requests

        for mode in MODES:
            report = ColocationScheduler(
                [TenantSpec(model, model) for model in self.colocated],
                [self.engines[model] for model in self.colocated],
                config=ColocationConfig(
                    mode=mode, frames=self.colocation_frames, seed=self.seed
                ),
            ).run()
            digest.add(report.to_json())
            ops += self.colocation_frames * len(report.admitted)

        supervisor = InferenceSupervisor(
            self.engines["googlenet"],
            streams=[StreamSpec(f"camera{i}") for i in range(4)],
            seed=self.seed,
            batching=BatchingConfig(max_batch=4),
        )
        report = supervisor.serve(60)
        digest.add(report.to_json(include_records=True))
        ops += report.requests
        return ops, digest.hexdigest()


WORKLOADS: Dict[str, Type[Workload]] = {
    cls.name: cls
    for cls in (PaperTiming, ZooForward, ZooBuild, ServeFaults, ServeSteady)
}
