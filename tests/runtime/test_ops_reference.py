"""Op-level oracle: the strided-tap ``im2col``/``conv2d``/``max_pool``
and the one-matrix ``nms`` against the gather implementations in
:mod:`tests.runtime.reference_ops`.

The contract is bit identity, including the output strides of every
dimension longer than 1 (consumers such as ``fully_connected`` hand
strides to BLAS), over signed zeros, NaN and +-inf too.  The one
exception is the sign of a result the two implementations reduce in a
different order:

* one INT8 dot product that mixes +NaN and -NaN (a float32 GEMM here,
  a float64 GEMM in the reference);
* at batch 1, a pooling window whose maximum is NaN, or a tie between
  +0 and -0.  There the reference reduces each window with numpy's
  contiguous max reduction, which compares SIMD lanes in parallel once
  the window is longer than the vector width and returns a canonical
  +NaN when its vector part saw a NaN; the running maximum compares the
  taps in order and keeps the first NaN it meets.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.ir import DataType
from repro.runtime import ops
from repro.runtime.math_config import LayerMath

from tests.runtime import reference_ops as ref

ORACLE = settings(max_examples=120, deadline=None, derandomize=True)

MATHS = st.one_of(
    st.just(("fp32", 1)),
    st.tuples(st.just("fp16"), st.sampled_from((1, 2, 4))),
    st.just(("int8", 1)),
)


def _layer_math(name, split_k, x, w):
    if name == "fp32":
        return LayerMath()
    if name == "fp16":
        return LayerMath(precision=DataType.FP16, split_k=split_k)
    finite = np.abs(x[np.isfinite(x)])
    return LayerMath(
        precision=DataType.INT8,
        int8_scale_in=float(finite.max(initial=1.0)) / 127.0 or 1.0,
        int8_scale_w=float(np.abs(w).max()) / 127.0 or 1.0,
    )


def _feature_map(rng, shape, layout, special):
    """A float32 ``(N, C, H, W)`` map, optionally stored ``(C, H, W, N)``
    (the layout ``max_pool`` returns), with injected signed zeros,
    mostly non-positive values (so pooling ties on +-0), or NaN/inf."""
    x = rng.standard_normal(shape).astype(np.float32)
    if special == "neg_zeros":
        x = -np.abs(x)
    if special in ("zeros", "neg_zeros", "nonfinite"):
        hit = rng.random(shape) < 0.3
        x[hit] = rng.choice(np.array([0.0, -0.0], np.float32), hit.sum())
    if special == "nonfinite":
        values = np.array([np.nan, -np.nan, np.inf, -np.inf], np.float32)
        hit = rng.random(shape) < 0.08
        x[hit] = rng.choice(values, hit.sum())
    if layout == "chwn":
        x = np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
    return x


def _assert_same(got, want, sign_free=None):
    """Identical dtype, shape, strides of every dimension longer than
    1, and bits; where ``sign_free`` is set the bits may differ in the
    sign alone."""
    assert got.dtype == want.dtype and got.shape == want.shape
    for size, g, w in zip(got.shape, got.strides, want.strides):
        if size > 1:
            assert g == w, (got.strides, want.strides)
    diff = got.view(np.uint32) ^ want.view(np.uint32)
    same = diff == 0
    if sign_free is not None:
        same |= sign_free & (diff == 0x80000000)
    assert same.all(), (got[~same], want[~same])


def _mixed_nan_signs(cols):
    """Per row of ``cols``: does it hold both a +NaN and a -NaN?"""
    nan = np.isnan(cols)
    neg = np.signbit(cols)
    return (nan & ~neg).any(axis=1) & (nan & neg).any(axis=1)


GEOMETRY = st.tuples(
    st.sampled_from((1, 2, 8)),  # batch
    st.integers(1, 5),  # channels
    st.integers(1, 9),  # height
    st.integers(1, 9),  # width
    st.sampled_from((1, 2, 3, 5)),  # kernel
    st.integers(1, 3),  # stride
    st.integers(0, 2),  # pad
).filter(lambda g: min(g[2], g[3]) + 2 * g[6] >= g[4])
LAYOUTS = st.sampled_from(("nchw", "chwn"))
SPECIALS = st.sampled_from(("none", "zeros", "neg_zeros", "nonfinite"))


class TestIm2col:
    @ORACLE
    @given(GEOMETRY, LAYOUTS, SPECIALS, st.integers(0, 2**32 - 1))
    def test_matches_gather(self, geometry, layout, special, seed):
        n, c, h, w, k, s, p = geometry
        x = _feature_map(np.random.default_rng(seed), (n, c, h, w), layout, special)
        got = ops.im2col(x, k, s, p)
        want = ref.im2col(x, k, s, p)
        assert got[1:] == want[1:]
        _assert_same(got[0], want[0])


class TestConv2d:
    @ORACLE
    @given(
        GEOMETRY, st.integers(1, 5), MATHS, LAYOUTS, SPECIALS, st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_gather(
        self, geometry, out_c, math_spec, layout, special, with_bias, seed
    ):
        n, c, h, w, k, s, p = geometry
        rng = np.random.default_rng(seed)
        x = _feature_map(rng, (n, c, h, w), layout, special)
        kernel = rng.standard_normal((out_c, c, k, k)).astype(np.float32)
        bias = rng.standard_normal(out_c).astype(np.float32) if with_bias else None
        math = _layer_math(*math_spec, x, kernel)
        got = ops.conv2d(x, kernel, bias, s, p, math)
        want = ref.conv2d(x, kernel, bias, s, p, math)
        free = None
        if math.precision is DataType.INT8:
            cols, oh, ow = ref.im2col(x, k, s, p)
            free = _mixed_nan_signs(cols).reshape(n, 1, oh, ow)
        _assert_same(got, want, free)


POOLS = st.tuples(
    st.sampled_from((1, 2, 8)),  # batch
    st.integers(1, 4),  # channels
    st.integers(1, 9),  # height
    st.integers(1, 9),  # width
    st.sampled_from((1, 2, 3, 5)),  # kernel
    st.integers(1, 3),  # stride
    st.integers(0, 2),  # pad
    st.booleans(),  # same
).filter(
    # Caffe ceil mode needs a full window and pad < kernel.
    lambda g: g[7]
    or (min(g[2], g[3]) + 2 * g[6] >= g[4] and g[6] < g[4])
)


class TestMaxPool:
    @ORACLE
    @given(POOLS, LAYOUTS, SPECIALS, st.integers(0, 2**32 - 1))
    def test_matches_gather(self, geometry, layout, special, seed):
        n, c, h, w, k, s, p, same = geometry
        x = _feature_map(np.random.default_rng(seed), (n, c, h, w), layout, special)
        got = ops.max_pool(x, k, s, p, same=same)
        want = ref.max_pool(x, k, s, p, same=same)
        free = None
        if n == 1:
            neg = np.signbit(x)

            def any_in_window(mask):
                return ref.max_pool(mask.astype(np.float32), k, s, p, same) > 0

            zero = x == 0
            free = np.isnan(want) | (
                (want == 0)
                & any_in_window(zero & neg)
                & any_in_window(zero & ~neg)
            )
        _assert_same(got, want, free)


class TestNms:
    @ORACLE
    @given(
        st.integers(0, 40), st.floats(0.0, 1.0), st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_per_box_loop(self, k, threshold, tied, seed):
        rng = np.random.default_rng(seed)
        corners = rng.uniform(0.0, 1.0, size=(k, 2))
        sizes = rng.uniform(-0.05, 0.4, size=(k, 2))  # some degenerate
        boxes = np.concatenate([corners, corners + sizes], axis=1)
        scores = rng.uniform(size=k)
        if tied:
            scores = np.round(scores, 1)
        assert ops.nms(boxes, scores, threshold) == ref.nms(
            boxes, scores, threshold
        )


class TestChannelWindowIndex:
    @ORACLE
    @given(GEOMETRY)
    def test_matches_im2col_derivation(self, geometry):
        _n, c, h, w, k, s, p = geometry
        h, w = h + 2 * p, w + 2 * p
        key = (c, h, w, k, s, (h - k) // s + 1, (w - k) // s + 1)
        got = ops._channel_window_index.__wrapped__(*key)
        want = ref.channel_window_index.__wrapped__(*key)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


class TestInt8Exactness:
    """The float32 K-chunks must sum exactly where one float32 GEMM
    cannot: K = 2700 with every operand at +-127 reaches
    2700 * 127**2 > 2**25."""

    K = 2700
    MATH = LayerMath(
        precision=DataType.INT8, int8_scale_in=1.0, int8_scale_w=1 / 127
    )

    def test_matches_float64_product(self):
        rng = np.random.default_rng(0)
        a = rng.choice(np.array([-127.0, 127.0], np.float32), (16, self.K))
        a[0] = 127.0  # the largest possible dot product
        a[1, :-1] = 127.0  # 2698 * 127**2 is not a float32 integer
        a[1, -1] = -127.0
        b = rng.choice(np.array([-1.0, 1.0], np.float32), (self.K, 5))
        b[:, 0] = 1.0  # quantizes to +127 under the 1/127 weight scale
        got = ops.precision_matmul(a, b, self.MATH)
        product = a.astype(np.float64) @ (b.astype(np.float64) * 127.0)
        assert product[0, 0] == self.K * 127**2
        assert int(np.float32(product[1, 0])) != product[1, 0]
        want = (product * np.float32(1 / 127)).astype(np.float32)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, ref.precision_matmul(a, b, self.MATH))

    @pytest.mark.parametrize("k", [ops._INT8_EXACT_K, ops._INT8_EXACT_K + 1])
    def test_chunk_boundary(self, k):
        a = np.full((2, k), 127.0, np.float32)
        b = np.full((k, 3), 1.0, np.float32)
        np.testing.assert_array_equal(
            ops.precision_matmul(a, b, self.MATH),
            ref.precision_matmul(a, b, self.MATH),
        )

    def test_bound_is_floor_of_float32_integer_range(self):
        assert ops._INT8_EXACT_K == 2**24 // 127**2 == 1040
