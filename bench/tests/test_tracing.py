"""Tracer: patching, restoration, self-time arithmetic, metric names."""

import inspect
import json
import sys
from pathlib import Path

import numpy as np

from bench.tracing import (
    LAYERS,
    PER_LAYER_METRICS,
    REP_SPAN,
    Tracer,
    count_calls,
    layer_metrics,
    resolve,
)

ROOT = Path(__file__).resolve().parents[2]


def _small_graph():
    from repro.graph.builder import GraphBuilder

    b = GraphBuilder("bench_small", (3, 16, 16), seed=3)
    t = b.conv("conv1", b.input_name, out_channels=8, kernel=3, pad=1)
    t = b.relu("relu1", t)
    t = b.max_pool("pool1", t, kernel=2)
    t = b.conv("conv2", t, out_channels=8, kernel=3, pad=1)
    t = b.relu("relu2", t)
    t = b.global_avg_pool("gap", t)
    t = b.fc("fc", t, 10)
    return b.finish(b.softmax("prob", t))


def _build_and_run():
    from repro.engine.builder import BuilderConfig, EngineBuilder
    from repro.hardware.specs import XAVIER_NX

    engine = EngineBuilder(XAVIER_NX, BuilderConfig(seed=11)).build(
        _small_graph()
    )
    context = engine.create_execution_context()
    x = np.random.default_rng(5).standard_normal((2, 3, 16, 16))
    outputs = context.execute(data=x.astype(np.float32)).outputs
    timing = context.time_inference(rng=np.random.default_rng(9))
    return engine.kernel_names(), outputs, timing


def _repro_bindings():
    """Every attribute of every repro module and of the classes they
    define, by identity."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        snapshot[name] = dict(vars(module))
        for attr, value in vars(module).items():
            if inspect.isclass(value) and value.__module__ == name:
                snapshot[f"{name}:{attr}"] = dict(vars(value))
    return snapshot


def test_every_target_resolves():
    for targets in LAYERS.values():
        for target in targets:
            assert resolve(target), target


def test_wrappers_restore_originals_and_leave_results_unchanged():
    kernels, outputs, timing = _build_and_run()
    for targets in LAYERS.values():  # import every traced module
        for target in targets:
            resolve(target)
    before = _repro_bindings()

    tracer = Tracer()
    with tracer.installed():
        with tracer.rep():
            traced = _build_and_run()
    assert traced[0] == kernels
    assert traced[1].keys() == outputs.keys()
    for name in outputs:
        assert np.array_equal(traced[1][name], outputs[name])
    assert traced[2] == timing
    assert tracer.calls("builder.build") == 1
    assert tracer.calls("executor.run") == 1
    assert tracer.calls("ops.conv2d") == 2
    assert tracer.calls("gpu.simulate") == 1
    assert tracer.calls("lint") >= 1

    after = _repro_bindings()
    for key, attrs in before.items():
        for attr, value in attrs.items():
            assert after[key][attr] is value, f"{key}.{attr} not restored"


class FakeClock:
    """Returns the scripted timestamps in order."""

    def __init__(self, times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9] > b1 [6, 8]
    # a and b1 both belong to layer "x", so x's self time sums both.
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 8, 9, 10]))
    with tracer.span(REP_SPAN):
        with tracer.span("x", "a"):
            with tracer.span("y", "a1"):
                pass
        with tracer.span("z", "b"):
            with tracer.span("x", "b1"):
                pass
    assert tracer.total_s(REP_SPAN) == 10
    assert tracer.self_s(REP_SPAN) == 10 - 3 - 4
    assert tracer.self_s("y") == 1
    assert tracer.self_s("z") == 4 - 2
    assert tracer.calls("x") == 2
    assert tracer.total_s("x") == 3 + 2
    assert tracer.self_s("x") == (3 - 1) + 2
    assert {(s[0], s[3]) for s in tracer.spans} == {
        ("a1", "a"), ("a", REP_SPAN), ("b1", "b"), ("b", REP_SPAN),
        (REP_SPAN, None),
    }


def test_wrapped_calls_nest_like_spans():
    tracer = Tracer(clock=FakeClock([0, 2, 5, 9]))
    inner = tracer.wrap("inner", "inner", lambda: "done")
    outer = tracer.wrap("outer", "outer", lambda: inner())
    assert outer() == "done"
    assert tracer.total_s("outer") == 9
    assert tracer.self_s("outer") == 9 - 3
    assert tracer.self_s("inner") == 3


def test_count_calls_counts_and_restores():
    import repro.hardware.gpu as gpu

    original = gpu.simulate_inference
    with count_calls("repro.hardware.gpu:simulate_inference") as n:
        _build_and_run()
        assert gpu.simulate_inference is not original
    assert n[0] == 1
    assert gpu.simulate_inference is original


def test_layer_metrics_match_benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer"]
    assert [
        (m["name"], m["unit"], m["better"]) for m in declared
    ] == PER_LAYER_METRICS
    emitted = layer_metrics(Tracer())
    assert set(emitted) | {"trace.overhead_frac"} == {
        name for name, _, _ in PER_LAYER_METRICS
    }
