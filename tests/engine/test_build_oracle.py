"""The one build pipeline agrees with the two pipelines of
:mod:`tests.engine.reference_builder` (:mod:`tests.engine.build_oracle`).

Random small networks cover what the zoo builds rarely: sibling 1x1
convs the merge pass may fuse, depthwise convs, a dead branch, and a
detection head whose post-processing is a fixed kernel sequence.  The
zoo models are small ones; CI runs the whole zoo on NX and AGX.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.engines import device_by_name
from repro.graph.builder import GraphBuilder

from tests.engine.build_oracle import (
    PRECISIONS,
    PROVIDERS,
    VARIANT_PRECISIONS,
    VARIANT_PROVIDERS,
    VARIANTS,
    base_config,
    mismatch,
    zoo_cases,
)

BLOCKS = ("conv", "conv_bn_relu", "siblings", "depthwise", "pool")


@st.composite
def small_networks(draw):
    """One to four blocks on a 3x12x12 input, then a classifier, a
    detection or a bare conv head, with an optional dead branch."""
    b = GraphBuilder("net", (3, 12, 12), seed=draw(st.integers(0, 3)))
    t = b.input_name
    for i in range(draw(st.integers(1, 4))):
        block = draw(st.sampled_from(BLOCKS))
        width = draw(st.sampled_from([4, 8, 16]))
        if block == "conv":
            t = b.conv(f"conv{i}", t, width, kernel=3, pad=1)
        elif block == "conv_bn_relu":
            t = b.conv(f"conv{i}", t, width, kernel=3, pad=1)
            t = b.relu(f"relu{i}", b.batchnorm(f"bn{i}", t))
        elif block == "siblings":
            left = b.relu(f"left_relu{i}", b.conv(f"left{i}", t, width, 1))
            right = b.relu(f"right_relu{i}", b.conv(f"right{i}", t, width, 1))
            t = b.concat(f"cat{i}", [left, right])
        elif block == "depthwise":
            t = b.depthwise_conv(f"dw{i}", t)
        elif b.shape_of(t)[1] >= 4:
            t = b.max_pool(f"pool{i}", t, kernel=2)
    if draw(st.booleans()):
        b.conv("dead", t, 4, kernel=1)
    head = draw(st.sampled_from(["classifier", "detection", "conv"]))
    if head == "classifier":
        t = b.fc("fc", b.global_avg_pool("gap", t), 10)
        t = b.softmax("prob", t)
    elif head == "detection":
        bbox = b.conv("bbox", t, 4, kernel=1)
        coverage = b.conv("coverage", t, 3, kernel=1)
        t = b.detection_output("detections", [bbox, coverage], num_classes=3)
    else:
        t = b.conv("head", t, 8, kernel=1)
    return b.finish(t, allow_dead=True)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    network=small_networks(),
    precision=st.sampled_from(PRECISIONS),
    provider=st.sampled_from(PROVIDERS),
    variant=st.sampled_from(("",) + tuple(VARIANTS)),
    device=st.sampled_from(("NX", "AGX")),
)
def test_small_networks_build_like_the_reference(
    network, precision, provider, variant, device
):
    config = base_config(network, precision)
    diff = mismatch(network, device_by_name(device), config, provider, variant)
    assert diff is None


@pytest.mark.parametrize(
    "model, variants",
    [("alexnet", tuple(VARIANTS)), ("mtcnn", ()), ("tiny_yolov3", ())],
)
def test_zoo_models_build_like_the_reference(model, variants):
    checked = 0
    for label, network, device, config, provider, variant in zoo_cases(
        model, ("NX",), variants=variants
    ):
        diff = mismatch(network, device, config, provider, variant)
        assert diff is None, label
        checked += 1
    assert checked == len(PRECISIONS) * len(PROVIDERS) + len(variants) * len(
        VARIANT_PRECISIONS
    ) * len(VARIANT_PROVIDERS)
