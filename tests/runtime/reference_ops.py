"""Reference implementations of the strided-tap ops in
:mod:`repro.runtime.ops`: the earlier fancy-index gather versions.

These are the oracle for the optimized ops.  Every function here is
expected to produce exactly the bytes its counterpart in
:mod:`repro.runtime.ops` produces, with the same output strides (up to
the NaN and signed-zero signs ``test_ops_reference.py`` lists):

* ``im2col`` and ``conv2d`` gather patches through a flat index tensor
  and quantize or round the gathered patch matrix.
* ``precision_matmul`` copies both operands before the GEMM and
  accumulates INT8 in one float64 GEMM.
* ``max_pool`` reduces gathered ``k*k`` windows with ``max(axis=-1)``.
* ``nms`` calls ``box_iou`` once per kept box.

:func:`patched` swaps them into :mod:`repro.runtime.ops` so a whole
engine forward can run on the reference ops.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache
from typing import Iterator, List, Optional

import numpy as np

from repro.graph.ir import DataType
from repro.graph.shapes import pool_output_hw
from repro.runtime import ops
from repro.runtime.math_config import LayerMath


@lru_cache(maxsize=512)
def _im2col_index(
    c: int, h: int, w: int, kernel: int, stride: int, out_h: int, out_w: int
) -> np.ndarray:
    chan = np.arange(c, dtype=np.int32)[:, None, None] * (h * w)
    ky = np.arange(kernel, dtype=np.int32)[None, :, None] * w
    kx = np.arange(kernel, dtype=np.int32)[None, None, :]
    offsets = (chan + ky + kx).reshape(1, -1)
    oy = np.arange(out_h, dtype=np.int32)[:, None] * (stride * w)
    ox = np.arange(out_w, dtype=np.int32)[None, :] * stride
    base = (oy + ox).reshape(-1, 1)
    idx = base + offsets
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=512)
def channel_window_index(
    c: int, h: int, w: int, kernel: int, stride: int, out_h: int, out_w: int
) -> np.ndarray:
    base = _im2col_index.__wrapped__(c, h, w, kernel, stride, out_h, out_w)
    k2 = kernel * kernel
    idx = np.ascontiguousarray(
        base.reshape(out_h, out_w, c, k2).transpose(2, 0, 1, 3)
    )
    idx.setflags(write=False)
    return idx


def _pad_nchw(x: np.ndarray, pad: int, value: float = 0.0) -> np.ndarray:
    if pad == 0:
        return x
    return np.pad(
        x,
        ((0, 0), (0, 0), (pad, pad), (pad, pad)),
        mode="constant",
        constant_values=value,
    )


def _matmul_fp16_split(a, b, split_k):
    a16 = a.astype(np.float16)
    b16 = b.astype(np.float16)
    k = a16.shape[1]
    split_k = max(1, min(split_k, k))
    if split_k == 1:
        partial = (
            a16.astype(np.float32) @ b16.astype(np.float32)
        ).astype(np.float16)
        return (partial + np.float16(0.0)).astype(np.float32)
    acc = np.zeros((a16.shape[0], b16.shape[1]), dtype=np.float16)
    for lo, hi in ops._chunk_bounds.__wrapped__(k, split_k):
        partial = (
            a16[:, lo:hi].astype(np.float32) @ b16[lo:hi, :].astype(np.float32)
        ).astype(np.float16)
        acc = acc + partial
    return acc.astype(np.float32)


def _quantize_sym(x, scale):
    if scale <= 0:
        raise ValueError(f"int8 scale must be positive, got {scale}")
    return np.clip(np.rint(x / scale), -127, 127)


def _per_channel_scales(absmax, scale_cap):
    return np.where(
        absmax > 0, np.minimum(absmax / 127.0, scale_cap), scale_cap
    )


def _matmul_int8(a, b, scale_a, scale_b):
    qa = _quantize_sym(a, scale_a)
    col_absmax = np.abs(b).max(axis=0)
    col_scales = _per_channel_scales(col_absmax, scale_b)
    qb = np.clip(np.rint(b / col_scales[None, :]), -127, 127)
    acc = qa.astype(np.float64) @ qb.astype(np.float64)
    return (acc * (scale_a * col_scales[None, :])).astype(np.float32)


def precision_matmul(a, b, math: LayerMath) -> np.ndarray:
    if math.precision is DataType.FP32:
        return (a.astype(np.float32) @ b.astype(np.float32)).astype(np.float32)
    if math.precision is DataType.FP16:
        return _matmul_fp16_split(a, b, math.split_k)
    if math.precision is DataType.INT8:
        if math.int8_scale_in is None or math.int8_scale_w is None:
            raise ValueError("INT8 math requires calibrated scales")
        return _matmul_int8(a, b, math.int8_scale_in, math.int8_scale_w)
    raise ValueError(f"unsupported precision {math.precision}")


def im2col(x, kernel, stride, pad):
    x = _pad_nchw(x, pad)
    n, c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    idx = _im2col_index(c, h, w, kernel, stride, out_h, out_w)
    patches = x.reshape(n, -1)[:, idx]
    return patches.reshape(n * out_h * out_w, c * kernel * kernel), out_h, out_w


def conv2d(x, kernel, bias, stride, pad, math):
    n = x.shape[0]
    out_c, in_c, k, _ = kernel.shape
    if x.shape[1] != in_c:
        raise ValueError(
            f"conv expects {in_c} input channels, got {x.shape[1]}"
        )
    cols, out_h, out_w = im2col(x, k, stride, pad)
    w2d = kernel.reshape(out_c, in_c * k * k).T
    out = precision_matmul(cols, w2d, math)
    out = out.reshape(n, out_h, out_w, out_c).transpose(0, 3, 1, 2)
    if bias is not None:
        out = out + bias.reshape(1, -1, 1, 1).astype(np.float32)
    return np.ascontiguousarray(out.astype(np.float32, copy=False))


def deconv2d(x, kernel, bias, stride, math):
    n, in_c, h, w = x.shape
    out_c, _, k, _ = kernel.shape
    out_h = (h - 1) * stride + k
    out_w = (w - 1) * stride + k
    w2d = kernel.reshape(out_c, in_c, k * k)
    cols = x.transpose(0, 2, 3, 1).reshape(n * h * w, in_c)
    stamp = precision_matmul(
        cols, w2d.transpose(1, 0, 2).reshape(in_c, out_c * k * k), math
    ).reshape(n, h, w, out_c, k, k)
    if k <= stride:
        buf = np.zeros((n, out_c, h * stride, w * stride), dtype=np.float32)
        view = buf.reshape(n, out_c, h, stride, w, stride)
        view[:, :, :, :k, :, :k] = stamp.transpose(0, 3, 1, 4, 2, 5)
        np.add(buf, np.float32(0.0), out=buf)
        out = np.ascontiguousarray(buf[:, :, :out_h, :out_w])
    else:
        idx = ops._deconv_scatter_index.__wrapped__(h, w, k, stride, out_w)
        vals = np.ascontiguousarray(
            stamp.transpose(0, 3, 4, 5, 1, 2)
        ).reshape(n, out_c, -1)
        out = np.zeros((n, out_c, out_h * out_w), dtype=np.float32)
        np.add.at(
            out,
            (
                np.arange(n)[:, None, None],
                np.arange(out_c)[None, :, None],
                idx[None, None, :],
            ),
            vals,
        )
        out = out.reshape(n, out_c, out_h, out_w)
    if bias is not None:
        out = out + bias.reshape(1, -1, 1, 1)
    return out


def fully_connected(x, kernel, bias: Optional[np.ndarray], math):
    flat = x.reshape(x.shape[0], -1)
    out = precision_matmul(flat, kernel.T, math)
    if bias is not None:
        out = out + bias.reshape(1, -1).astype(np.float32)
    return out.astype(np.float32, copy=False)


def max_pool(x, kernel, stride, pad, same=False):
    in_h, in_w = x.shape[2], x.shape[3]
    xp = _pad_nchw(x, pad, value=-np.inf)
    n, c, h, w = xp.shape
    if same:
        out_h = -(-h // stride)
        out_w = -(-w // stride)
    else:
        out_h, out_w = pool_output_hw(in_h, in_w, kernel, stride, pad)
    need_h = (out_h - 1) * stride + kernel
    need_w = (out_w - 1) * stride + kernel
    if need_h > h or need_w > w:
        xp = np.pad(
            xp,
            ((0, 0), (0, 0), (0, max(0, need_h - h)), (0, max(0, need_w - w))),
            mode="constant",
            constant_values=-np.inf,
        )
    n, c, h, w = xp.shape
    idx = channel_window_index(c, h, w, kernel, stride, out_h, out_w)
    windows = xp.reshape(n, -1)[:, idx]
    return windows.max(axis=-1).astype(np.float32, copy=False)


def nms(boxes, scores, iou_threshold) -> List[int]:
    order = np.argsort(-scores)
    keep: List[int] = []
    suppressed = np.zeros(len(boxes), dtype=bool)
    for idx in order:
        if suppressed[idx]:
            continue
        keep.append(int(idx))
        ious = ops.box_iou(boxes[idx][None, :], boxes).reshape(-1)
        suppressed |= ious >= iou_threshold
        suppressed[idx] = True
    return keep


#: The ops :func:`patched` replaces.  ``detection_output`` reaches the
#: reference ``nms`` through the module global.
PATCHED = ("conv2d", "deconv2d", "fully_connected", "max_pool", "nms")


@contextmanager
def patched() -> Iterator[None]:
    """Run a block with the reference ops installed in
    :mod:`repro.runtime.ops`."""
    saved = {name: getattr(ops, name) for name in PATCHED}
    try:
        for name in PATCHED:
            setattr(ops, name, globals()[name])
        yield
    finally:
        for name, fn in saved.items():
            setattr(ops, name, fn)
