"""Regression tests for the numeric-kernel correctness fixes.

Each test here pins behavior that was wrong before the fix — they fail
on the previous implementations:

* ``avg_pool`` deflated ceil-mode edge windows by dividing the sum of
  the *true* elements by the full ``k*k`` (phantom synthetic zeros).
* ``_matmul_int8`` / INT8 ``depthwise_conv2d`` let a large weight
  channel widen its quantization step past the calibrated per-tensor
  scale instead of clipping to it.
* ``softmax`` normalized a rank-4 tensor over *all* elements instead of
  per-pixel over the channel axis.
* FP16 ``depthwise_conv2d`` ignored ``math.split_k`` and always
  reduced its ``k*k`` window in one chunk.
* INT8 scales were validated per op, and incompletely: ``depthwise_conv2d``
  without scales raised ``TypeError``, and a NaN input scale or a zero or
  negative weight scale was accepted.
"""

import numpy as np
import pytest

from repro.graph.ir import DataType
from repro.runtime import ops
from repro.runtime.math_config import LayerMath


class TestAvgPoolCeilDivisor:
    def test_ceil_mode_edge_windows_average_true_elements(self):
        # 5x5 input, k=2 s=2: ceil mode adds a synthetic row/col to
        # complete the third window.  On an all-ones input every mean
        # must be exactly 1.0; the old divisor gave 0.5 on edges and
        # 0.25 in the corner.
        x = np.ones((1, 1, 5, 5), dtype=np.float32)
        out = ops.avg_pool(x, kernel=2, stride=2, pad=0)
        assert out.shape == (1, 1, 3, 3)
        np.testing.assert_array_equal(out, np.ones((1, 1, 3, 3), np.float32))

    def test_declared_padding_still_counts_in_divisor(self):
        # Caffe semantics: user-declared zero padding *is* part of the
        # window (corner of k=3 s=1 pad=1 sees 4 ones over 9 slots);
        # only the synthetic ceil-mode rows are excluded.
        x = np.ones((1, 1, 4, 4), dtype=np.float32)
        out = ops.avg_pool(x, kernel=3, stride=1, pad=1)
        assert out[0, 0, 0, 0] == np.float32(4.0 / 9.0)
        assert out[0, 0, 1, 1] == np.float32(1.0)

    def test_interior_windows_unchanged(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        out = ops.avg_pool(x, kernel=2, stride=2, pad=0)
        # 8x8 with k=2 s=2 has no ceil-mode remainder: plain means.
        ref = x.reshape(2, 3, 4, 2, 4, 2).mean(axis=(3, 5)).astype(np.float32)
        np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-6)


class TestInt8PerChannelScaleCap:
    def _math(self):
        return LayerMath(
            precision=DataType.INT8,
            int8_scale_in=1.0 / 127.0,
            int8_scale_w=0.1,
        )

    def test_matmul_caps_channel_scale_at_calibrated_range(self):
        # A 200.0 weight would need scale 200/127 ≈ 1.57 to represent
        # exactly; calibration promised 0.1.  The channel must clip to
        # the calibrated range (127 * 0.1 = 12.7), not silently widen
        # its quantization step and return 200.
        a = np.array([[1.0]], dtype=np.float32)
        b = np.array([[200.0]], dtype=np.float32)
        out = ops.precision_matmul(a, b, self._math())
        np.testing.assert_allclose(out, [[12.7]], rtol=1e-6)

    def test_matmul_small_channels_keep_fine_scales(self):
        # Channels inside the calibrated range still use their own
        # (finer) per-channel scale — the cap only ever clips.
        a = np.array([[1.0]], dtype=np.float32)
        b = np.array([[0.05, 200.0]], dtype=np.float32)
        out = ops.precision_matmul(a, b, self._math())
        np.testing.assert_allclose(out[0, 0], 0.05, rtol=1e-6)
        np.testing.assert_allclose(out[0, 1], 12.7, rtol=1e-6)

    def test_depthwise_int8_applies_same_cap(self):
        x = np.ones((1, 1, 1, 1), dtype=np.float32)
        kernel = np.full((1, 1, 1, 1), 200.0, dtype=np.float32)
        out = ops.depthwise_conv2d(x, kernel, None, 1, 0, self._math())
        np.testing.assert_allclose(out.ravel(), [12.7], rtol=1e-6)


class TestSoftmaxRank4Axis:
    def test_rank4_normalizes_per_pixel_over_channels(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        out = ops.softmax(x)
        assert out.shape == x.shape
        # Every spatial position is its own distribution over channels;
        # the old flat softmax summed to 1 over the whole sample.
        np.testing.assert_allclose(
            out.sum(axis=1), np.ones((2, 4, 4)), rtol=1e-5
        )

    def test_rank2_flat_softmax_preserved(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 10)).astype(np.float32)
        out = ops.softmax(x)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(4), rtol=1e-5)
        ref = np.exp(x - x.max(axis=1, keepdims=True))
        ref = ref / ref.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(out, ref, rtol=1e-5)

    def test_nc11_matches_rank2_classifier_head(self):
        # A (N, C, 1, 1) classifier head must produce the same
        # probabilities as its flattened (N, C) form.
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 7, 1, 1)).astype(np.float32)
        np.testing.assert_array_equal(
            ops.softmax(x)[:, :, 0, 0], ops.softmax(x[:, :, 0, 0])
        )


class TestDepthwiseFp16SplitK:
    def _run(self, split_k):
        x = np.full((1, 1, 3, 3), 0.1, dtype=np.float32)
        kernel = np.ones((1, 1, 3, 3), dtype=np.float32)
        math = LayerMath(precision=DataType.FP16, split_k=split_k)
        return ops.depthwise_conv2d(x, kernel, None, 1, 0, math)

    def test_split_k_changes_rounding(self):
        # 9 products of fp16(0.1): one-chunk reduction rounds once,
        # three chunks round three partials first — genuinely different
        # fp16 results.  The old depthwise path ignored split_k.
        assert self._run(1).item() != self._run(3).item()

    def test_split_k_matches_chunked_reference(self):
        prod = np.float16(0.1).astype(np.float32) * np.float16(1.0).astype(
            np.float32
        )
        vals = np.full(9, prod, dtype=np.float32)
        acc = np.float16(0.0)
        for lo, hi in ((0, 3), (3, 6), (6, 9)):
            acc = acc + vals[lo:hi].sum().astype(np.float16)
        assert self._run(3).item() == np.float32(acc)

    def test_split_k_one_matches_single_rounding(self):
        prod = np.float16(0.1).astype(np.float32) * np.float16(1.0).astype(
            np.float32
        )
        expected = np.float32(np.float16(np.full(9, prod).sum()))
        assert self._run(1).item() == expected


def _int8_op(name, math):
    """Run one INT8-capable op on a tiny input under ``math``."""
    x = np.ones((1, 2, 3, 3), dtype=np.float32)
    if name == "conv2d":
        return ops.conv2d(x, np.ones((2, 2, 3, 3), np.float32), None, 1, 1, math)
    if name == "depthwise_conv2d":
        return ops.depthwise_conv2d(
            x, np.ones((2, 1, 3, 3), np.float32), None, 1, 1, math
        )
    if name == "deconv2d":
        return ops.deconv2d(x, np.ones((2, 2, 2, 2), np.float32), None, 2, math)
    return ops.fully_connected(x, np.ones((4, 18), np.float32), None, math)


INT8_OPS = ("conv2d", "depthwise_conv2d", "fully_connected", "deconv2d")


@pytest.mark.parametrize("op", INT8_OPS)
class TestInt8ScaleValidation:
    """Every INT8 op runs the same check: both scales finite and > 0."""

    def _raises(self, op, scale_in, scale_w):
        math = LayerMath(
            precision=DataType.INT8,
            int8_scale_in=scale_in,
            int8_scale_w=scale_w,
        )
        with pytest.raises(ValueError, match="finite and positive"):
            _int8_op(op, math)

    def test_missing_scales(self, op):
        # depthwise_conv2d used to raise TypeError ('<=' on None).
        self._raises(op, None, None)

    def test_nan_input_scale(self, op):
        # conv2d and depthwise_conv2d accepted NaN (NaN <= 0 is False).
        self._raises(op, float("nan"), 0.1)

    def test_zero_weight_scale(self, op):
        # Accepted with a divide-by-zero warning and an all-zero layer.
        self._raises(op, 0.1, 0.0)

    def test_negative_weight_scale(self, op):
        # Accepted silently.
        self._raises(op, 0.1, -1.0)
