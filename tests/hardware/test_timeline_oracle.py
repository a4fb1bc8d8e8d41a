"""The columnar timeline agrees bit for bit with the event-by-event
simulator of :mod:`tests.hardware.reference_timeline`
(:mod:`tests.hardware.timeline_oracle`), the cost table's terms agree
bit for bit with the reference's scalar cost formula, and so do the
tactic auctions priced through it.

Generated operating points cover clocks on and off the DVFS ladder,
SM shares, batches, DRAM contention, upload on and off, jitter zero
and positive, nvprof on and off, and a fault-injecting hook, on plain
TRT, cuda and cpu provider, multi-kernel detection and partitioned
engines.  CI runs the whole zoo at every supported clock.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.engines import EngineFarm
from repro.engine.engine import LayerBinding
from repro.engine.kernels import DEFAULT_CATALOG, KernelSpec
from repro.engine.tactics import TacticSelector
from repro.engine.timing_cache import TimingCache
from repro.graph.ir import DataType
from repro.hardware.cost import EngineCostTable
from repro.hardware.specs import XAVIER_AGX, XAVIER_NX
from repro.hardware.workload import LayerWorkload

from tests.engine.reference_builder import ReferenceTacticSelector
from tests.hardware.reference_timeline import for_batch, kernel_cost
from tests.hardware.timeline_oracle import (
    auction_mismatches,
    mismatches,
    partitioned_engine,
)

DEVICES = {"NX": XAVIER_NX, "AGX": XAVIER_AGX}

#: (model, provider): a single-kernel-per-layer CNN, a detection
#: network whose output layer binds four kernels, and both non-TRT
#: providers.
ZOO_CASES = (
    ("googlenet", "trt"),
    ("pednet", "trt"),
    ("mobilenet_v1", "cuda"),
    ("mtcnn", "cpu"),
)


@pytest.fixture(scope="module")
def engines():
    """``(label, engine, device)`` for every zoo case on both devices
    plus the partitioned engine."""
    out = []
    for name, device in DEVICES.items():
        for model, provider in ZOO_CASES:
            farm = EngineFarm(pretrained=False, base_seed=3, provider=provider)
            out.append((f"{model} {provider}", farm.engine(model, name), device))
        out.append(("partitioned", partitioned_engine(device), device))
    return out


@st.composite
def operating_points(draw, device):
    ladder = device.supported_gpu_clocks_mhz
    return dict(
        clock_mhz=draw(
            st.sampled_from(ladder)
            | st.floats(50.0, 2000.0, allow_nan=False)
        ),
        sm_fraction=draw(
            st.sampled_from((1.0, 0.5)) | st.floats(0.01, 1.0)
        ),
        batch_size=draw(st.sampled_from((1, 8, 32)) | st.integers(1, 64)),
        mem_contention=draw(st.sampled_from((1.0, 1.5)) | st.floats(1.0, 4.0)),
        include_engine_upload=draw(st.booleans()),
        jitter=draw(st.sampled_from((0.0, 0.05)) | st.floats(0.0, 0.5)),
        seed=draw(st.integers(0, 2**32 - 1)),
        nvprof=draw(st.booleans()),
        hooked=draw(st.booleans()),
        fault_time_s=draw(st.floats(0.0, 100.0)),
    )


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_timelines_match_the_reference(engines, data):
    label, engine, device = data.draw(st.sampled_from(engines), label="engine")
    point = data.draw(operating_points(device), label="point")
    assert mismatches(engine, device, **point) == [], label


@pytest.mark.parametrize("hooked", (False, True), ids=("plain", "hooked"))
def test_every_engine_matches_at_the_paper_clock(engines, hooked):
    for label, engine, device in engines:
        clock = 599.0 if device is XAVIER_NX else 624.75
        assert mismatches(engine, device, clock, hooked=hooked) == [], label


# ----------------------------------------------------------------------
# cost table vs scalar cost model
# ----------------------------------------------------------------------
kernels = st.builds(
    KernelSpec,
    name=st.just("k"),
    category=st.just("conv"),
    precision=st.sampled_from((DataType.FP32, DataType.FP16, DataType.INT8)),
    tile_m=st.sampled_from((16, 32, 64, 128, 256)),
    tile_n=st.sampled_from((16, 32, 64, 128, 256)),
    blocks_per_sm=st.integers(1, 8),
    split_k=st.integers(1, 16),
    prefetch_depth=st.integers(1, 128),
    bw_eff=st.floats(0.05, 1.0),
    uses_tensor_cores=st.booleans(),
    access_granularity_bytes=st.sampled_from((16, 32, 64, 128, 256)),
)

workloads = st.builds(
    LayerWorkload,
    flops=st.floats(0.0, 1e12),
    bytes_in=st.integers(0, 10**9),
    bytes_w=st.integers(0, 10**9),
    bytes_out=st.integers(0, 10**9),
    gemm_m=st.integers(1, 8192),
    gemm_n=st.integers(1, 10**6),
    gemm_k=st.integers(0, 10**5) | st.just(0),
    elements_out=st.integers(1, 10**7),
    category=st.just("conv"),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    rows=st.lists(st.tuples(kernels, workloads), min_size=1, max_size=6),
    device=st.sampled_from((XAVIER_NX, XAVIER_AGX)),
    clock_mhz=st.floats(1.0, 2000.0),
    sm_fraction=st.floats(0.001, 1.0),
    batch_size=st.integers(1, 64),
)
def test_cost_table_terms_equal_scalar_costs(
    rows, device, clock_mhz, sm_fraction, batch_size
):
    bindings = [
        LayerBinding(f"L{i}", [kernel], workload, tactic=None)
        for i, (kernel, workload) in enumerate(rows)
    ]
    launch, compute, bandwidth, latency = EngineCostTable(
        bindings, device
    ).kernel_terms(clock_mhz, sm_fraction, batch_size)
    for i, (kernel, workload) in enumerate(rows):
        want = kernel_cost(
            device, kernel, for_batch(workload, batch_size), clock_mhz,
            sm_fraction,
        )
        got = (launch, compute[i].item(), bandwidth[i].item(), latency[i].item())
        assert [x.hex() for x in got] == [
            x.hex()
            for x in (
                want.launch_us, want.compute_us, want.bandwidth_us,
                want.latency_us,
            )
        ], i


# ----------------------------------------------------------------------
# tactic auctions vs one-at-a-time scalar pricing
# ----------------------------------------------------------------------
#: (category, precision menus) pairs the builder auctions.
MENUS = [
    (category, menu)
    for category in sorted({k.category for k in DEFAULT_CATALOG})
    if category != "detection"
    for menu in (
        (DataType.FP32,),
        (DataType.FP16, DataType.FP32),
        (DataType.INT8, DataType.FP32),
        (DataType.INT8, DataType.FP16, DataType.FP32),
    )
]

layer_workloads = st.builds(
    LayerWorkload,
    flops=st.floats(0.0, 1e11),
    bytes_in=st.integers(0, 10**8),
    bytes_w=st.integers(0, 10**8),
    bytes_out=st.integers(0, 10**8),
    gemm_m=st.integers(1, 4096),
    gemm_n=st.integers(1, 10**5),
    gemm_k=st.integers(0, 10**4) | st.sampled_from((0, 8, 32, 64, 128)),
    elements_out=st.integers(1, 10**6),
    category=st.just("conv"),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    menu=st.sampled_from(MENUS),
    workload=layer_workloads,
    device=st.sampled_from((XAVIER_NX, XAVIER_AGX)),
    clock_mhz=st.sampled_from(XAVIER_NX.supported_gpu_clocks_mhz)
    | st.floats(50.0, 2000.0),
    noise=st.sampled_from((0.0, 0.08)) | st.floats(0.0, 0.5),
    repeats=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    cached=st.booleans(),
)
def test_auctions_match_scalar_pricing(
    menu, workload, device, clock_mhz, noise, repeats, seed, cached
):
    category, precisions = menu
    workload = dataclasses.replace(workload, category=category)
    candidates = DEFAULT_CATALOG.candidates(
        category, workload.gemm_k, precisions
    )
    assert auction_mismatches(device, clock_mhz, candidates, workload) == []
    # The whole auction, noise and timing cache included: the same
    # winner, times, counts and rng stream as one-at-a-time timing.
    sides = []
    for selector_cls in (TacticSelector, ReferenceTacticSelector):
        cache = TimingCache(device.name) if cached else None
        selector = selector_cls(
            device, clock_mhz, np.random.default_rng(seed),
            timing_noise=noise, timing_repeats=repeats, timing_cache=cache,
        )
        choice = selector.choose("l", workload, precisions, DEFAULT_CATALOG)
        again = selector.choose("l", workload, precisions, DEFAULT_CATALOG)
        merge = selector.merge_is_faster(
            [workload, workload], workload, precisions, DEFAULT_CATALOG
        )
        sides.append((
            [
                (c.kernel.name, c.measured_us.hex(), c.true_us.hex(),
                 c.candidates_timed, c.candidates_measured)
                for c in (choice, again)
            ],
            merge,
            selector.fresh_measurements,
            selector.cache_hits,
            selector._rng.bit_generator.state,
            None if cache is None else sorted(
                (k, v.hex()) for k, v in cache.entries.items()
            ),
        ))
    assert sides[0] == sides[1]
