"""Engine forwards give the same output bytes on the optimized ops as on
the reference gather ops (:mod:`tests.runtime.forward_oracle`).

The models cover every op the strided-tap rewrite touched: LRN/concat
convolutions (GoogLeNet), depthwise and ``detection_output`` (MobileNet),
deconvolution (FCN), and ResNet-18, whose ``max_pool`` output layout
reaches ``fully_connected``.  CI runs the same comparison over the whole
zoo at batch 8.
"""

import pytest

from repro.engine.builder import PrecisionMode
from repro.runtime import ops

from tests.runtime import reference_ops
from tests.runtime.forward_oracle import PRECISIONS, mismatches

MODELS = ("googlenet", "mobilenet_v1", "fcn_resnet18_cityscapes", "resnet18")


@pytest.mark.parametrize("precision", PRECISIONS, ids=lambda p: p.value)
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("batch", (1, 8))
def test_forward_bytes_match_reference_ops(model, precision, batch):
    assert mismatches(model, precision, batch) == []


def test_reference_ops_are_restored():
    before = {name: getattr(ops, name) for name in reference_ops.PATCHED}
    assert mismatches("resnet18", PrecisionMode.FP32, 1) == []
    assert {name: getattr(ops, name) for name in reference_ops.PATCHED} == before
