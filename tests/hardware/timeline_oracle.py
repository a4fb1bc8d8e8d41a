"""Timeline oracle: the columnar
:func:`repro.hardware.gpu.simulate_inference` must give the same
timeline, bit for bit, as the event-by-event simulator of
:mod:`tests.hardware.reference_timeline`.

One comparison (:func:`mismatches`) runs both simulators on the same
engine and operating point, each with its own identically seeded jitter
generator, nvprof instance and fault injector, and compares

* every field of every kernel and memcpy event;
* ``kernel_us``, ``memcpy_us`` and ``total_us``;
* the jitter generator's state after the call;
* the fault log;
* nvprof's kernel and memcpy summaries against the same aggregation
  over the reference events.

The same scalar formula is the oracle for tactic auctions:
:func:`auction_mismatches` prices one candidate list against one
workload through the live selector (one vector evaluation of the cost
table) and one candidate at a time with the reference formula, and
compares every cost term and total.

Tier-1 runs generated operating points on a few engines and generated
auctions (``tests/hardware/test_timeline_oracle.py``); CI runs all 13
zoo models on NX and AGX as trt, cuda and cpu engines plus a
partitioned engine, at every supported clock, then every (candidate
list, workload) pair that the 13 models' builds price on NX and AGX at
fp32, fp16 and int8, at every supported clock::

    PYTHONPATH=src python -m tests.hardware.timeline_oracle
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import struct
import sys
from typing import Dict, Iterator, List, Optional, Sequence, Tuple
from unittest import mock

import numpy as np

from repro.analysis.engines import EngineFarm, device_by_name
from repro.engine.builder import BuilderConfig, EngineBuilder, PrecisionMode
from repro.engine.engine import Engine
from repro.engine.kernels import KernelSpec
from repro.engine.tactics import TacticSelector
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultScenario
from repro.hardware.cost import CostTable, kernel_columns
from repro.hardware.gpu import simulate_inference
from repro.hardware.specs import DeviceSpec
from repro.hardware.workload import LayerWorkload
from repro.models import MODEL_REGISTRY, build_model, list_models
from repro.profiling.nvprof import Nvprof

from tests.conftest import make_small_cnn
from tests.hardware import reference_timeline

#: Hardware faults at probabilities below one, so that the injector
#: rolls its trigger generators and logs firings per event.
FAULT_PLAN = FaultPlan(
    scenarios=[
        FaultScenario(FaultKind.DRAM_DEGRADATION, severity=2, name="dram"),
        FaultScenario(
            FaultKind.MEMCPY_STALL, probability=0.4, severity=3, name="stall"
        ),
        FaultScenario(
            FaultKind.KERNEL_HANG, probability=0.05, severity=1, name="hang"
        ),
    ],
    seed=11,
)


def _bits(value: object) -> object:
    """Floats by their IEEE bytes (so ``-0.0 != 0.0`` and a float is
    never equal to an int); everything else as is."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    return (type(value), value)


def _event_rows(events: Sequence) -> List[Tuple]:
    return [
        tuple(_bits(getattr(e, f.name)) for f in dataclasses.fields(e))
        for e in events
    ]


def _summary(rows: Sequence[Tuple[str, float]]) -> Dict[str, Tuple]:
    """nvprof's summary-mode aggregation, event by event."""
    stats: Dict[str, List] = {}
    for name, duration in rows:
        entry = stats.setdefault(name, [0, 0.0, math.inf, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] = min(entry[2], duration)
        entry[3] = max(entry[3], duration)
    return {k: tuple(_bits(float(x)) for x in v) for k, v in stats.items()}


def _stats(summary) -> Dict[str, Tuple]:
    return {
        name: tuple(
            _bits(float(x))
            for x in (s.calls, s.total_us, s.min_us, s.max_us)
        )
        for name, s in summary.items()
    }


def mismatches(
    engine: Engine,
    device: DeviceSpec,
    clock_mhz: float,
    sm_fraction: float = 1.0,
    batch_size: int = 1,
    mem_contention: float = 1.0,
    include_engine_upload: bool = True,
    jitter: float = 0.05,
    seed: int = 0,
    nvprof: bool = False,
    hooked: bool = False,
    fault_time_s: float = 1.0,
) -> List[str]:
    """What differs between the columnar and the reference timeline of
    ``engine`` on ``device`` at one operating point (empty when they
    agree bit for bit)."""
    sides = []
    for simulate in (simulate_inference, reference_timeline.simulate_inference):
        rng = np.random.default_rng(seed)
        profiler = Nvprof() if nvprof else None
        hook: Optional[FaultInjector] = None
        if hooked:
            hook = FaultInjector(FAULT_PLAN)
            hook.set_time(fault_time_s)
        timing = simulate(
            bindings=engine.bindings,
            device=device,
            clock_mhz=clock_mhz,
            weight_chunks=engine.weight_chunks,
            input_bytes=engine.input_bytes(),
            include_engine_upload=include_engine_upload,
            rng=rng,
            jitter=jitter,
            sm_fraction=sm_fraction,
            profiler=profiler,
            hardware_hook=hook,
            batch_size=batch_size,
            mem_contention=mem_contention,
        )
        sides.append((timing, rng, profiler, hook))
    (got, got_rng, got_prof, got_hook), (want, want_rng, _, want_hook) = sides

    problems = []
    header = ("device_name", "clock_mhz", "batch_size")
    if [getattr(got, f) for f in header] != [getattr(want, f) for f in header]:
        problems.append("header")
    for kind in ("kernel_events", "memcpy_events"):
        if _event_rows(getattr(got, kind)) != _event_rows(getattr(want, kind)):
            problems.append(kind)
    for total in ("kernel_us", "memcpy_us", "total_us"):
        if _bits(getattr(got, total)) != _bits(float(getattr(want, total))):
            problems.append(total)
    if got_rng.bit_generator.state != want_rng.bit_generator.state:
        problems.append("rng state")
    if got_hook is not None and want_hook is not None:
        if got_hook.log.events != want_hook.log.events:
            problems.append("fault log")
    if got_prof is not None:
        kernels = [(e.kernel_name, e.duration_us) for e in want.kernel_events]
        copies = [(e.label, e.duration_us) for e in want.memcpy_events]
        if _stats(got_prof.kernel_summary()) != _summary(kernels):
            problems.append("nvprof kernel summary")
        if _stats(got_prof.memcpy_summary()) != _summary(copies):
            problems.append("nvprof memcpy summary")
    return problems


def partitioned_engine(device: DeviceSpec, seed: int = 7) -> Engine:
    """An INT8 ``cuda,trt`` build of the small test CNN: the quantized
    ops land on TRT, the rest on CUDA, with transfers between them."""
    net = make_small_cnn()
    shape = next(iter(net.input_specs.values())).shape
    calibration = np.random.default_rng(seed).standard_normal(
        (4,) + shape
    ).astype(np.float32)
    config = BuilderConfig(
        seed=seed,
        precision=PrecisionMode.INT8,
        provider="cuda,trt",
        calibration_batch=calibration,
    )
    return EngineBuilder(device, config).build(net)


def zoo_engines(
    models: Sequence[str],
    devices: Sequence[str],
    providers: Sequence[str] = ("trt", "cuda", "cpu"),
    seed: int = 7,
) -> Iterator[Tuple[str, Engine, DeviceSpec]]:
    """``(label, engine, device)`` for every model, device and
    provider, then one partitioned engine per device."""
    farms = {
        provider: EngineFarm(pretrained=False, base_seed=seed, provider=provider)
        for provider in providers
    }
    for model in models:
        for name in devices:
            for provider, farm in farms.items():
                yield f"{model} {name} {provider}", farm.engine(model, name), (
                    device_by_name(name)
                )
    for name in devices:
        device = device_by_name(name)
        yield f"small_cnn {name} cuda,trt int8", partitioned_engine(device), device


def operating_points(
    device: DeviceSpec,
) -> Iterator[Dict[str, object]]:
    """Every supported clock x batch {1, 8, 32} x sm_fraction {1, 0.5}
    x contention {1, 1.5} x plain/hooked.  Upload, jitter and nvprof
    cycle with the point index, so each combination meets all of them."""
    index = 0
    for clock in device.supported_gpu_clocks_mhz:
        for batch in (1, 8, 32):
            for sm_fraction in (1.0, 0.5):
                for contention in (1.0, 1.5):
                    for hooked in (False, True):
                        yield dict(
                            clock_mhz=clock,
                            batch_size=batch,
                            sm_fraction=sm_fraction,
                            mem_contention=contention,
                            hooked=hooked,
                            include_engine_upload=index % 3 != 0,
                            jitter=0.0 if index % 5 == 0 else 0.05,
                            nvprof=index % 2 == 0,
                            seed=index,
                        )
                        index += 1


def auction_mismatches(
    device: DeviceSpec,
    clock_mhz: float,
    kernels: Sequence[KernelSpec],
    workload: LayerWorkload,
) -> List[str]:
    """The candidates whose price differs between the live auction (one
    vector evaluation of the cost table) and the reference formula
    (one candidate at a time) in any bit of a cost term or the total
    (empty when they all agree)."""
    selector = TacticSelector(device, clock_mhz, np.random.default_rng(0))
    totals = selector.measure(kernels, workload)[1]
    table = CostTable(kernel_columns(device, kernels), workload)
    launch, *columns = table.kernel_terms(clock_mhz, 1.0, 1)
    got = zip(*(column.tolist() for column in columns), totals)
    bad = []
    for kernel, (compute, bandwidth, latency, total) in zip(kernels, got):
        want = reference_timeline.kernel_cost(
            device, kernel, workload, clock_mhz
        )
        if [_bits(x) for x in (launch, compute, bandwidth, latency, total)] != [
            _bits(x)
            for x in (
                want.launch_us, want.compute_us, want.bandwidth_us,
                want.latency_us, want.total_us,
            )
        ]:
            bad.append(kernel.name)
    return bad


#: (device, candidate kernels, workload) of one priced candidate list.
Auction = Tuple[DeviceSpec, Tuple[KernelSpec, ...], LayerWorkload]


def build_auctions(
    model: str,
    devices: Sequence[str],
    precisions: Sequence[PrecisionMode] = (
        PrecisionMode.FP32, PrecisionMode.FP16, PrecisionMode.INT8,
    ),
    seed: int = 7,
) -> List[Auction]:
    """Every distinct (candidate list, workload) pair that seeded builds
    of ``model`` price on ``devices`` at ``precisions``: tactic auctions
    and both sides of every merge decision (INT8 builds calibrated)."""
    from tests.engine.build_oracle import base_config

    network = build_model(model, pretrained=False)
    input_name = MODEL_REGISTRY[model].input_name
    priced: Dict[Tuple, Auction] = {}
    measure = TacticSelector.measure

    def recording(self, kernels, workload):
        key = (self.device.name, tuple(k.name for k in kernels), workload)
        priced.setdefault(key, (self.device, tuple(kernels), workload))
        return measure(self, kernels, workload)

    with mock.patch.object(TacticSelector, "measure", recording):
        for name in devices:
            for precision in precisions:
                config = base_config(network, precision, seed, input_name)
                EngineBuilder(device_by_name(name), config).build(network)
    return list(priced.values())


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
    args = parser.parse_args(argv)
    engines = checked = failed = 0
    for label, engine, device in zoo_engines(
        args.models.split(","), args.devices.split(",")
    ):
        bad: Dict[str, int] = {}
        points = 0
        for point in operating_points(device):
            for problem in mismatches(engine, device, **point):
                bad[problem] = bad.get(problem, 0) + 1
            points += 1
        engines += 1
        checked += points
        failed += bool(bad)
        status = (
            "MISMATCH " + ", ".join(f"{k} x{v}" for k, v in sorted(bad.items()))
            if bad else "ok"
        )
        print(f"{label:40s} {points:4d} points: {status}")
    print(
        f"timeline oracle: {failed} of {engines} engines differ "
        f"({checked} timelines compared)"
    )
    priced = differ = 0
    for model in args.models.split(","):
        auctions = build_auctions(model, args.devices.split(","))
        bad = 0
        for device, kernels, workload in auctions:
            for clock in device.supported_gpu_clocks_mhz:
                for name in auction_mismatches(device, clock, kernels, workload):
                    bad += 1
                    print(f"{model} {device.name} {clock} MHz {name}: MISMATCH")
            priced += len(kernels) * len(device.supported_gpu_clocks_mhz)
        differ += bad
        print(f"{model:26s} {len(auctions):5d} candidate lists: "
              + (f"{bad} prices differ" if bad else "ok"))
    print(
        f"auction oracle: {differ} of {priced} candidate prices differ"
    )
    return 1 if failed or differ else 0


if __name__ == "__main__":
    sys.exit(main())
