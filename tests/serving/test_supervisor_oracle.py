"""The supervisor's one request path agrees byte for byte with the
per-request and batched loops it replaced, kept in
:mod:`tests.serving.reference_supervisor`.

Generated workloads of 1-4 streams with priorities run without
batching and with micro-batches of at most 1-4 requests (max wait 0 or
2 ms), supervised and not, with and without a fallback engine, under
the zero-fault plan, the four ADAS canned plans and a kernel-hang plan
that fires the watchdog.  The report with every record and action, and
the fault log event by event, must match.  Explicit cases hit each
mechanism (a watchdog cut, a retry with backoff, a shed stream, a
ladder degrade) with and without batching, and one compares the
telemetry spans.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.engine.builder import BuilderConfig, EngineBuilder
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultScenario,
    canned_plan,
    zero_fault_plan,
)
from repro.hardware.specs import XAVIER_NX
from repro.serving import (
    BatchingConfig,
    InferenceSupervisor,
    ServiceReport,
    StreamSpec,
    SupervisorConfig,
)
from repro.telemetry import JsonlSink, session

from tests.conftest import make_small_cnn
from tests.serving.reference_supervisor import ReferenceSupervisor

ADAS_PLANS = ("thermal_oom", "flaky_kernels", "nan_storm", "memcpy_stall")
PLANS = ("none", *ADAS_PLANS, "hang")


def make_plan(name: str, seed: int) -> FaultPlan:
    if name == "none":
        return zero_fault_plan()
    if name == "hang":
        # Every other launch hangs far past the watchdog budget.
        return FaultPlan(
            scenarios=[
                FaultScenario(
                    kind=FaultKind.KERNEL_HANG,
                    probability=0.5,
                    severity=5,
                    amplitude=500.0,
                )
            ],
            seed=seed,
            name="hang",
        )
    return canned_plan(name, seed=seed)


@pytest.fixture(scope="module")
def engines(small_cnn):
    primary = EngineBuilder(XAVIER_NX, BuilderConfig(seed=0)).build(
        small_cnn
    )
    lite = EngineBuilder(XAVIER_NX, BuilderConfig(seed=0)).build(
        make_small_cnn(seed=1, with_dead_branch=False, input_size=8)
    )
    healthy_ms = primary.create_execution_context().time_inference(
        include_engine_upload=False, jitter=0.0
    ).total_ms
    return primary, lite, healthy_ms


def serve(cls: type, engines, case: Dict[str, Any]) -> ServiceReport:
    primary, lite, healthy_ms = engines
    batching = case["batching"]
    supervisor = cls(
        primary,
        fallbacks=[lite] if case["fallback"] else (),
        streams=[
            StreamSpec(f"cam{i}", priority=p)
            for i, p in enumerate(case["priorities"])
        ],
        config=SupervisorConfig(
            deadline_ms=healthy_ms * case["deadline_factor"],
            max_retries=case["max_retries"],
        ),
        injector=FaultInjector(make_plan(case["plan"], case["seed"])),
        supervised=case["supervised"],
        seed=case["seed"],
        batching=(
            None if batching is None
            else BatchingConfig(max_batch=batching[0], max_wait_ms=batching[1])
        ),
    )
    return supervisor.serve(case["frames"])


def assert_matches_reference(engines, case: Dict[str, Any]) -> ServiceReport:
    live = serve(InferenceSupervisor, engines, case)
    ref = serve(ReferenceSupervisor, engines, case)
    assert live.to_json(include_records=True) == ref.to_json(
        include_records=True
    )
    live_log = live.fault_log.to_dicts()
    ref_log = ref.fault_log.to_dicts()
    for i, (a, b) in enumerate(zip(live_log, ref_log)):
        assert a == b, f"fault event {i} differs"
    assert len(live_log) == len(ref_log)
    return live


@st.composite
def workloads(draw) -> Dict[str, Any]:
    streams = draw(st.integers(1, 4))
    return dict(
        priorities=draw(
            st.lists(st.integers(0, 2), min_size=streams, max_size=streams)
        ),
        batching=draw(
            st.none()
            | st.tuples(st.integers(1, 4), st.sampled_from((0.0, 2.0)))
        ),
        supervised=draw(st.booleans()),
        fallback=draw(st.booleans()),
        plan=draw(st.sampled_from(PLANS)),
        deadline_factor=draw(st.sampled_from((1.2, 1.5, 3.0))),
        max_retries=draw(st.integers(0, 2)),
        frames=draw(st.sampled_from((8, 20))),
        seed=draw(st.integers(0, 3)),
    )


#: A failing case already names the first differing field; shrinking a
#: serving run only costs time.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


@settings(max_examples=25, deadline=None, derandomize=True,
          phases=NO_SHRINK)
@given(case=workloads())
def test_serving_matches_the_reference(engines, case):
    assert_matches_reference(engines, case)


def _case(**overrides: Any) -> Dict[str, Any]:
    case: Dict[str, Any] = dict(
        priorities=[2, 1, 0],
        batching=None,
        supervised=True,
        fallback=True,
        plan="none",
        deadline_factor=1.5,
        max_retries=2,
        frames=8,
        seed=2,
    )
    case.update(overrides)
    return case


def _actions(report: ServiceReport, text: str) -> List[Tuple[float, str]]:
    return [(t, a) for t, a in report.actions if text in a]


#: Each mechanism's workload and the check that it really fired.
MECHANISMS = {
    "watchdog_cut": (
        dict(plan="hang"),
        lambda r: _actions(r, "watchdog cut attempt"),
    ),
    "retry_with_backoff": (
        dict(plan="flaky_kernels", deadline_factor=3.0),
        lambda r: r.total_retries > 0,
    ),
    "shed_stream": (
        dict(plan="thermal_oom", frames=20),
        lambda r: r.dropped_frames > 0 and _actions(r, "shed stream"),
    ),
    "ladder_degrade": (
        dict(plan="memcpy_stall", frames=20),
        lambda r: _actions(r, "degraded to level 1"),
    ),
}


@pytest.mark.parametrize(
    "batching", [None, (2, 2.0)], ids=["unbatched", "batched"]
)
@pytest.mark.parametrize("mechanism", sorted(MECHANISMS))
def test_each_mechanism_matches_the_reference(engines, mechanism, batching):
    overrides, fired = MECHANISMS[mechanism]
    report = assert_matches_reference(
        engines, _case(batching=batching, **overrides)
    )
    assert fired(report)


@pytest.mark.parametrize(
    "batching", [None, (4, 2.0)], ids=["unbatched", "batched"]
)
def test_telemetry_spans_match_the_reference(engines, batching):
    case = _case(plan="thermal_oom", frames=20, batching=batching)
    spans = []
    for cls in (InferenceSupervisor, ReferenceSupervisor):
        sink = JsonlSink()
        with session(sink):
            serve(cls, engines, case)
        events = sink.events()
        for event in events:
            event.pop("seq")
        spans.append(events)
    assert spans[0] == spans[1]
    assert any(e["kind"] == "hw.sample" for e in spans[0])
