"""One intentionally-broken fixture per lint rule ID.

Graph fixtures are built through the raw IR (``add_layer`` /
``mark_output`` guard the obvious mistakes at insert time, so some
breakage is injected by mutating layers *after* insertion — exactly
what a buggy optimizer pass would do).  Engine and plan fixtures start
from a clean build of the shared small CNN and tamper with one field.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.engine import BuilderConfig, EngineBuilder
from repro.engine.plan import save_plan
from repro.graph.ir import DataType, Graph, Layer, LayerKind, TensorSpec
from repro.hardware.specs import XAVIER_NX
from repro.lint import (
    GraphView,
    all_rules,
    lint_and_load_plan,
    lint_engine,
    lint_graph,
    lint_plan,
)
from repro.lint.core import Severity

from tests.conftest import make_small_cnn


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def tiny_graph() -> Graph:
    """A minimal clean graph: data -> conv -> relu -> (output)."""
    g = Graph("tiny", [TensorSpec("data", (3, 8, 8))])
    g.add_layer(
        Layer(
            "conv1",
            LayerKind.CONVOLUTION,
            ["data"],
            ["conv1_out"],
            attrs={"out_channels": 4, "kernel": 3, "stride": 1, "pad": 1},
            weights={
                "kernel": np.full((4, 3, 3, 3), 0.1, np.float32),
                "bias": np.zeros(4, np.float32),
            },
        )
    )
    g.add_layer(
        Layer(
            "relu1",
            LayerKind.ACTIVATION,
            ["conv1_out"],
            ["relu1_out"],
            attrs={"function": "relu"},
        )
    )
    g.mark_output("relu1_out")
    return g


def layer_by_name(g: Graph, name: str) -> Layer:
    return {layer.name: layer for layer in g.layers}[name]


def fired(report, rule_id: str):
    return [d for d in report.diagnostics if d.rule_id == rule_id]


def build_engine():
    return EngineBuilder(XAVIER_NX, BuilderConfig(seed=0)).build(
        make_small_cnn()
    )


def rewrite_plan_doc(path, mutate) -> None:
    """Reopen a saved plan, mutate its JSON document, resave."""
    with np.load(path, allow_pickle=False) as archive:
        arrays = {key: archive[key] for key in archive.files}
    doc = json.loads(bytes(arrays["__plan__"]).decode("utf-8"))
    mutate(doc)
    arrays["__plan__"] = np.frombuffer(
        json.dumps(doc).encode("utf-8"), dtype=np.uint8
    )
    with open(path, "wb") as f:
        np.savez_compressed(f, **arrays)


@pytest.fixture()
def plan_path(tmp_path):
    path = tmp_path / "small.plan"
    save_plan(build_engine(), path)
    return path


# ----------------------------------------------------------------------
# baseline: the fixtures start clean
# ----------------------------------------------------------------------
def test_tiny_graph_lints_clean():
    assert lint_graph(tiny_graph()).diagnostics == []


def test_small_cnn_engine_lints_clean():
    report = lint_engine(build_engine())
    assert report.ok, report.format_text()


def test_every_rule_has_stable_metadata():
    rules = all_rules()
    assert len(rules) >= 40
    for rule_id, rule in rules.items():
        assert rule.rule_id == rule_id
        assert rule_id[0] in "GQFPVDR"
        assert rule.name and rule.description


# ----------------------------------------------------------------------
# G: structure
# ----------------------------------------------------------------------
def test_g001_dangling_tensor():
    g = tiny_graph()
    layer_by_name(g, "relu1").inputs[0] = "ghost"
    report = lint_graph(g)
    assert not report.ok
    diag = fired(report, "G001")[0]
    assert diag.tensor == "ghost" and diag.layer == "relu1"


def test_g002_duplicate_tensor():
    g = tiny_graph()
    g.add_layer(
        Layer("dup", LayerKind.IDENTITY, ["data"], ["dup_out"])
    )
    layer_by_name(g, "dup").outputs[0] = "conv1_out"
    report = lint_graph(g)
    assert fired(report, "G002") and not report.ok


def test_g002_layer_shadows_graph_input():
    g = tiny_graph()
    g.add_layer(Layer("shadow", LayerKind.IDENTITY, ["data"], ["tmp"]))
    layer_by_name(g, "shadow").outputs[0] = "data"
    assert fired(lint_graph(g), "G002")


def test_g003_graph_cycle():
    g = Graph("loop", [TensorSpec("data", (4,))])
    g.add_layer(Layer("a", LayerKind.IDENTITY, ["b_out"], ["a_out"]))
    g.add_layer(Layer("b", LayerKind.IDENTITY, ["a_out"], ["b_out"]))
    g.mark_output("a_out")
    report = lint_graph(g)
    assert not report.ok
    assert fired(report, "G003")
    # the dangling-tensor rule must NOT also fire: both tensors exist
    assert not fired(report, "G001")


def test_g003_names_only_layers_on_the_cycle():
    """Layers downstream of a cycle cannot run either, but G003 names
    only the cycle itself."""
    g = Graph("tail", [TensorSpec("x", (4,))])
    g.add_layer(Layer("a", LayerKind.ELEMENTWISE, ["x", "b_out"], ["a_out"]))
    g.add_layer(Layer("b", LayerKind.IDENTITY, ["a_out"], ["b_out"]))
    g.add_layer(Layer("c", LayerKind.IDENTITY, ["b_out"], ["c_out"]))
    g.add_layer(Layer("d", LayerKind.IDENTITY, ["c_out"], ["d_out"]))
    g.mark_output("d_out")
    view = GraphView(g)
    assert [layer.name for layer in view.unschedulable] == ["a", "b", "c", "d"]
    assert view.cyclic_layers == ["a", "b"]
    assert not view.structural_ok
    (diag,) = fired(lint_graph(g), "G003")
    assert diag.message == "dependency cycle through layer(s): 'a', 'b'"
    assert diag.layer == "a"


def test_g003_self_loop_and_cycle_through_duplicate_producers():
    g = Graph("loops", [TensorSpec("x", (4,))])
    g.add_layer(Layer("self", LayerKind.IDENTITY, ["self_out"], ["self_out"]))
    g.add_layer(Layer("p", LayerKind.IDENTITY, ["x"], ["p_out"]))
    g.add_layer(Layer("q", LayerKind.IDENTITY, ["p_out"], ["q_out"]))
    # 'p_out' gets a second producer downstream of 'q': a cycle in the
    # producer graph, but 'p' defines the tensor, so both layers run.
    g.add_layer(Layer("r", LayerKind.IDENTITY, ["q_out"], ["tmp"]))
    layer_by_name(g, "r").outputs[0] = "p_out"
    view = GraphView(g)
    assert [layer.name for layer in view.unschedulable] == ["self"]
    assert view.cyclic_layers == ["self"]


def test_g004_unreachable_layer_is_warning():
    g = tiny_graph()
    g.add_layer(Layer("dead", LayerKind.IDENTITY, ["data"], ["dead_out"]))
    report = lint_graph(g)
    diag = fired(report, "G004")[0]
    assert diag.severity is Severity.WARNING and diag.layer == "dead"
    assert report.ok  # warnings do not fail the non-strict gate
    assert not report.passed(strict=True)


def test_g005_undefined_output():
    g = tiny_graph()
    g.output_names.append("phantom")
    report = lint_graph(g)
    assert fired(report, "G005") and not report.ok


def test_g006_no_outputs():
    g = Graph("mute", [TensorSpec("data", (4,))])
    g.add_layer(Layer("id", LayerKind.IDENTITY, ["data"], ["out"]))
    assert fired(lint_graph(g), "G006")


def test_g007_unused_input_is_warning():
    g = Graph(
        "extra",
        [TensorSpec("data", (4,)), TensorSpec("aux", (4,))],
    )
    g.add_layer(Layer("id", LayerKind.IDENTITY, ["data"], ["out"]))
    g.mark_output("out")
    report = lint_graph(g)
    diag = fired(report, "G007")[0]
    assert diag.severity is Severity.WARNING and diag.tensor == "aux"
    assert report.ok


def test_g010_dtype_mismatch_across_concat():
    g = Graph("mix", [TensorSpec("data", (2, 4, 4))])
    for name in ("left", "right"):
        g.add_layer(
            Layer(name, LayerKind.IDENTITY, ["data"], [f"{name}_out"])
        )
    g.add_layer(
        Layer(
            "cat",
            LayerKind.CONCAT,
            ["left_out", "right_out"],
            ["cat_out"],
            attrs={"axis": 0},
        )
    )
    g.mark_output("cat_out")
    layer_by_name(g, "left").precision = DataType.FP16
    report = lint_graph(g)
    diag = fired(report, "G010")[0]
    assert diag.severity is Severity.WARNING and diag.layer == "cat"


def test_g011_shape_inference_failure():
    g = tiny_graph()
    # second conv with a different spatial size, concatenated: infer
    # raises, the linter reports instead
    g.add_layer(
        Layer(
            "conv2",
            LayerKind.CONVOLUTION,
            ["data"],
            ["conv2_out"],
            attrs={"out_channels": 4, "kernel": 3, "stride": 1, "pad": 0},
            weights={"kernel": np.zeros((4, 3, 3, 3), np.float32)},
        )
    )
    g.add_layer(
        Layer(
            "cat",
            LayerKind.CONCAT,
            ["conv1_out", "conv2_out"],
            ["cat_out"],
            attrs={"axis": 0},
        )
    )
    g.mark_output("cat_out")
    report = lint_graph(g)
    assert fired(report, "G011") and not report.ok


def test_g011_silent_on_structurally_broken_graphs():
    """Shape inference is meaningless on a dangling graph: only the
    structural rule fires, not a cascading inference failure."""
    g = tiny_graph()
    layer_by_name(g, "relu1").inputs[0] = "ghost"
    report = lint_graph(g)
    assert fired(report, "G001") and not fired(report, "G011")


def test_g012_weight_shape_mismatch_conv():
    g = tiny_graph()
    layer_by_name(g, "conv1").weights["kernel"] = np.zeros(
        (5, 3, 3, 3), np.float32
    )
    report = lint_graph(g)
    assert any(
        "filters" in d.message for d in fired(report, "G012")
    ) and not report.ok


def test_g012_weight_shape_mismatch_fc():
    g = Graph("fc", [TensorSpec("data", (8,))])
    g.add_layer(
        Layer(
            "fc",
            LayerKind.FULLY_CONNECTED,
            ["data"],
            ["fc_out"],
            attrs={"out_units": 4},
            weights={"kernel": np.zeros((4, 9), np.float32)},
        )
    )
    g.mark_output("fc_out")
    report = lint_graph(g)
    assert fired(report, "G012") and not report.ok


def test_g013_bad_input_spec():
    g = Graph("bad_in", [TensorSpec("data", (0, 8, 8))])
    g.add_layer(Layer("id", LayerKind.IDENTITY, ["data"], ["out"]))
    g.mark_output("out")
    assert fired(lint_graph(g), "G013")


# ----------------------------------------------------------------------
# Q: quantization sanity
# ----------------------------------------------------------------------
def test_q002_int8_unquantizable_kind():
    g = tiny_graph()
    layer_by_name(g, "relu1").precision = DataType.INT8
    report = lint_graph(g)
    diag = fired(report, "Q002")[0]
    assert diag.layer == "relu1" and not report.ok


def test_q003_fp16_overflow_risk():
    g = tiny_graph()
    conv = layer_by_name(g, "conv1")
    conv.precision = DataType.FP16
    conv.weights["kernel"] = np.full((4, 3, 3, 3), 5000.0, np.float32)
    report = lint_graph(g)
    diag = fired(report, "Q003")[0]
    assert diag.severity is Severity.WARNING and report.ok


# ----------------------------------------------------------------------
# F: fusion legality
# ----------------------------------------------------------------------
def test_f001_pad_swallows_window():
    g = tiny_graph()
    conv = layer_by_name(g, "conv1")
    conv.attrs.update(kernel=2, pad=2)
    conv.weights["kernel"] = np.zeros((4, 3, 2, 2), np.float32)
    report = lint_graph(g)
    assert fired(report, "F001") and not report.ok


def test_f001_degenerate_stride():
    g = tiny_graph()
    layer_by_name(g, "conv1").attrs["stride"] = 0
    assert fired(lint_graph(g), "F001")


def test_f002_merged_splits_mismatch():
    g = Graph("merged", [TensorSpec("data", (3, 8, 8))])
    g.add_layer(
        Layer(
            "m",
            LayerKind.MERGED_CONV,
            ["data"],
            ["m_a", "m_b"],
            attrs={
                "out_channels": 5,
                "kernel": 1,
                "stride": 1,
                "pad": 0,
                "splits": [2, 2],  # sums to 4, kernel stores 5
            },
            weights={"kernel": np.zeros((5, 3, 1, 1), np.float32)},
        )
    )
    g.mark_output("m_a")
    g.mark_output("m_b")
    report = lint_graph(g)
    assert any(
        "stacked kernel" in d.message for d in fired(report, "F002")
    )


def test_f003_missing_weights():
    g = tiny_graph()
    layer_by_name(g, "conv1").weights.clear()
    report = lint_graph(g)
    diag = fired(report, "F003")[0]
    assert "kernel" in diag.message and not report.ok


def test_f004_unknown_activation():
    g = tiny_graph()
    layer_by_name(g, "relu1").attrs["function"] = "swish"
    report = lint_graph(g)
    assert fired(report, "F004") and not report.ok


# ----------------------------------------------------------------------
# P/Q: engine integrity
# ----------------------------------------------------------------------
def test_p001_missing_binding():
    engine = build_engine()
    dropped = engine.bindings.pop()
    report = lint_engine(engine)
    diag = fired(report, "P001")[0]
    assert dropped.layer_name in diag.message and not report.ok


def test_p001_orphan_binding():
    engine = build_engine()
    engine.bindings[0].layer_name = "no_such_layer"
    report = lint_engine(engine)
    assert fired(report, "P001") and not report.ok


def test_p002_size_mismatch():
    engine = build_engine()
    engine.size_bytes += 1
    report = lint_engine(engine)
    assert fired(report, "P002") and not report.ok


def test_p003_weight_chunk_mismatch():
    engine = build_engine()
    engine.weight_chunks[0] += 8
    report = lint_engine(engine)
    assert fired(report, "P003") and not report.ok


def test_p005_missing_math_config():
    engine = build_engine()
    victim = next(
        b.layer_name for b in engine.bindings if len(b.kernels) == 1
    )
    del engine.math_config.per_layer[victim]
    report = lint_engine(engine)
    diag = fired(report, "P005")[0]
    assert diag.layer == victim and not report.ok


def test_q001_int8_layer_without_scales():
    engine = build_engine()
    victim = next(
        layer
        for layer in engine.graph.layers
        if layer.kind is LayerKind.FUSED_CONV_BLOCK
    )
    victim.precision = DataType.INT8
    report = lint_engine(engine)
    assert fired(report, "Q001") and not report.ok


# ----------------------------------------------------------------------
# P: plan documents
# ----------------------------------------------------------------------
def test_clean_plan_lints_ok(plan_path):
    report = lint_plan(plan_path)
    assert report.ok, report.format_text()


def test_lint_and_load_plan_returns_the_audited_engine(plan_path):
    from repro.engine.plan import load_plan

    report, engine = lint_and_load_plan(plan_path)
    assert report.ok
    assert engine.kernel_names() == load_plan(plan_path).kernel_names()
    assert report.diagnostics == lint_plan(plan_path).diagnostics


def test_lint_and_load_plan_withholds_a_failed_engine(plan_path):
    rewrite_plan_doc(
        plan_path, lambda doc: doc.update(size_bytes=doc["size_bytes"] + 1)
    )
    report, engine = lint_and_load_plan(plan_path)
    assert fired(report, "P002") and engine is None


def test_p004_unknown_kernel(plan_path):
    rewrite_plan_doc(
        plan_path,
        lambda doc: doc["bindings"][0].update(kernels=["no_such_kernel"]),
    )
    report = lint_plan(plan_path)
    assert fired(report, "P004") and not report.ok
    # stage 2 must not have run: no engine-level rules in the report
    assert not fired(report, "P001")


def test_p006_missing_metadata(plan_path):
    def strip(doc):
        del doc["device"]
        del doc["weight_chunks"]

    rewrite_plan_doc(plan_path, strip)
    report = lint_plan(plan_path)
    diag = fired(report, "P006")[0]
    assert "device" in diag.message and not report.ok


def test_p006_wrong_version(plan_path):
    rewrite_plan_doc(
        plan_path, lambda doc: doc.update(plan_version=999)
    )
    report = lint_plan(plan_path)
    assert any("999" in d.message for d in fired(report, "P006"))


def test_p006_unreadable_file(tmp_path):
    path = tmp_path / "garbage.plan"
    path.write_bytes(b"this is not a plan archive")
    report = lint_plan(path)
    diag = fired(report, "P006")[0]
    assert "unreadable" in diag.message and not report.ok


def test_stage2_failure_is_diagnosed_not_raised(plan_path):
    """Suppressing the doc rule lets deserialization hit the corrupt
    binding; the loader failure must surface as P006, not a KeyError."""
    rewrite_plan_doc(
        plan_path,
        lambda doc: doc["bindings"][0].update(kernels=["no_such_kernel"]),
    )
    report = lint_plan(plan_path, ignore=["P004"])
    assert any(
        "deserialization" in d.message for d in fired(report, "P006")
    )


def test_engine_size_tamper_caught_at_stage2(plan_path):
    rewrite_plan_doc(
        plan_path, lambda doc: doc.update(size_bytes=doc["size_bytes"] + 1)
    )
    report = lint_plan(plan_path)
    assert fired(report, "P002") and not report.ok


# ----------------------------------------------------------------------
# select / ignore plumbing
# ----------------------------------------------------------------------
def test_select_and_ignore_prefixes():
    g = tiny_graph()
    layer_by_name(g, "relu1").inputs[0] = "ghost"
    layer_by_name(g, "conv1").weights.clear()
    full = lint_graph(g)
    assert {"G001", "F003"} <= set(full.rule_ids())
    only_g = lint_graph(g, select=["G"])
    assert set(only_g.rule_ids()) <= {"G001", "G004"}
    no_g001 = lint_graph(g, ignore=["G001"])
    assert "G001" not in no_g001.rule_ids()
    assert "F003" in no_g001.rule_ids()


def test_report_round_trips_through_json():
    g = tiny_graph()
    layer_by_name(g, "relu1").inputs[0] = "ghost"
    doc = json.loads(lint_graph(g).to_json())
    assert doc["ok"] is False and doc["errors"] >= 1
    assert any(d["rule_id"] == "G001" for d in doc["diagnostics"])
