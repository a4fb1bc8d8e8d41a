"""Numpy implementations of every IR operation.

All feature maps are ``(N, C, H, W)`` float arrays; flattened vectors are
``(N, C)``.  Convolutions go through im2col + matmul.  The precision
semantics are the point of this module:

* **FP32** — straight float32 math.
* **FP16** — inputs/weights cast to float16; the reduction axis is split
  into ``split_k`` chunks, each partial product is computed and *rounded
  to float16* before the chunks are summed in float16.  Two kernels with
  different ``split_k`` therefore produce genuinely different roundings,
  exactly like differently-tiled cuDNN/cuBLAS kernels.  This applies to
  the depthwise path too: its ``k*k`` window reduction is chunked the
  same way.
* **INT8** — symmetric per-tensor activation quantization with
  calibrated scales; weights use per-channel scales **capped at the
  calibrated weight scale** (a channel whose absmax exceeds the
  calibration range must not silently widen its quantization step);
  accumulation is exact in int32, then dequantized.

A precision GEMM is two steps.  The *operand* step is elementwise —
the FP16 round trip, or INT8 activation quantization — so ``conv2d``
applies it to its input before im2col rather than to the ``k*k``-times
larger patch matrix.  The *product* step, shared by ``conv2d``,
``fully_connected`` and ``deconv2d``, rounds or quantizes the weights,
runs the GEMM and adds the bias in place.

The spatial ops loop only over kernel taps, never over pixels.  im2col
and max pooling copy or reduce one strided slice per tap of a padded
copy of the input; depthwise convolution and average pooling gather
their windows through flat index tensors; deconvolution scatters its
stamps through one.  The index tensors are pure functions of the layer
shape, memoized with ``lru_cache`` (the tinygrad idiom).  Caching never
changes a result byte — an index tensor is the same whether it came
from the cache or was rebuilt — and :mod:`repro.caching` provides the
global off switch the byte-identity tests flip.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.caching import caching_enabled, register_cache
from repro.graph.ir import DataType
from repro.graph.shapes import pool_output_hw
from repro.runtime.math_config import LayerMath


# ----------------------------------------------------------------------
# cached index tensors (pure functions of the layer shape)
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _chunk_bounds(k: int, split_k: int) -> Tuple[Tuple[int, int], ...]:
    """Non-empty ``[lo, hi)`` reduction chunks for a split-K kernel."""
    bounds = np.linspace(0, k, split_k + 1, dtype=int)
    return tuple(
        (int(lo), int(hi))
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    )


@lru_cache(maxsize=512)
def _channel_window_index(
    c: int, h: int, w: int, kernel: int, stride: int, out_h: int, out_w: int
) -> np.ndarray:
    """Flat gather indices producing per-channel sliding windows of a
    padded ``(C, h, w)`` map: shape ``(c, out_h, out_w, kernel*kernel)``
    (depthwise/average-pooling layout, window elements ordered
    (ky, kx))."""
    chan = np.arange(c, dtype=np.int32)[:, None, None, None] * (h * w)
    oy = np.arange(out_h, dtype=np.int32)[None, :, None, None] * (stride * w)
    ox = np.arange(out_w, dtype=np.int32)[None, None, :, None] * stride
    ky = np.arange(kernel, dtype=np.int32)[:, None] * w
    kx = np.arange(kernel, dtype=np.int32)[None, :]
    idx = chan + oy + ox + (ky + kx).reshape(1, 1, 1, -1)
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=512)
def _avg_pool_divisors(
    h: int, w: int, kernel: int, stride: int, out_h: int, out_w: int
) -> np.ndarray:
    """Per-window divisor for Caffe-style average pooling: the number
    of window elements inside the *declared* (possibly user-padded)
    ``h x w`` extent.  The synthetic right/bottom zero rows added so
    ceil-mode windows are complete are out of bounds and excluded."""
    oy = np.arange(out_h) * stride
    ox = np.arange(out_w) * stride
    rows = np.minimum(oy + kernel, h) - oy
    cols = np.minimum(ox + kernel, w) - ox
    div = (rows[:, None] * cols[None, :]).astype(np.float32)
    div.setflags(write=False)
    return div


@lru_cache(maxsize=256)
def _deconv_scatter_index(
    h: int, w: int, kernel: int, stride: int, out_w: int
) -> np.ndarray:
    """Flat scatter indices for the transposed-convolution stamp sum,
    ordered (ky, kx, y, x) so per-output-element accumulation happens
    in the same (ky, kx) order as the historical stamp loop."""
    ky = np.arange(kernel)[:, None, None, None]
    kx = np.arange(kernel)[None, :, None, None]
    y = np.arange(h)[None, None, :, None]
    x = np.arange(w)[None, None, None, :]
    idx = ((y * stride + ky) * out_w + (x * stride + kx)).reshape(-1)
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=64)
def _detection_cell_centers(
    h: int, w: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Normalized (cx, cy) grid-cell centers for box decoding."""
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    cell_cx = (xs + 0.5) / w
    cell_cy = (ys + 0.5) / h
    cell_cx.setflags(write=False)
    cell_cy.setflags(write=False)
    return cell_cx, cell_cy


for _fn in (
    _chunk_bounds,
    _channel_window_index,
    _avg_pool_divisors,
    _deconv_scatter_index,
    _detection_cell_centers,
):
    register_cache(_fn.cache_clear)


def _index(cached_fn, *key):
    """Fetch an index tensor, bypassing the memo when caching is off."""
    if caching_enabled():
        return cached_fn(*key)
    return cached_fn.__wrapped__(*key)


# ----------------------------------------------------------------------
# precision-aware matmul core: an elementwise operand step, then a
# product step
# ----------------------------------------------------------------------
#: Longest INT8 reduction one float32 GEMM sums exactly: with |q| <= 127
#: every partial sum is an integer of magnitude at most K * 127**2, and
#: float32 represents every integer up to 2**24.
_INT8_EXACT_K = (1 << 24) // (127 * 127)


def _check_int8_scales(
    scale_in: Optional[float], scale_w: Optional[float]
) -> None:
    """The INT8 scale check every INT8 op runs before quantizing: both
    calibration scales must be finite and > 0."""
    for scale in (scale_in, scale_w):
        if scale is None or not np.isfinite(scale) or not scale > 0:
            raise ValueError(
                "INT8 math requires calibrated scales that are finite and "
                f"positive, got int8_scale_in={scale_in!r}, "
                f"int8_scale_w={scale_w!r}"
            )


def _fp16_round(x: np.ndarray) -> np.ndarray:
    """Round to float16 storage and widen back to float32 (exact)."""
    return x.astype(np.float16).astype(np.float32)


def _quantize_sym(x: np.ndarray, scale: float) -> np.ndarray:
    """Symmetric int8 quantization: round(x/scale) clipped to [-127,127]."""
    return np.clip(np.rint(x / scale), -127, 127)


def _per_channel_scales(absmax: np.ndarray, scale_cap: float) -> np.ndarray:
    """Per-output-channel weight scales, capped at the calibrated
    per-tensor scale.

    A channel whose absmax exceeds the calibration range would
    otherwise widen its own quantization step past what calibration
    promised — the cap clips that channel instead (TensorRT clamps to
    the calibrated dynamic range).  Channels without weights fall back
    to the cap.
    """
    return np.where(
        absmax > 0, np.minimum(absmax / 127.0, scale_cap), scale_cap
    )


def _operand(x: np.ndarray, math: LayerMath) -> np.ndarray:
    """The operand step: the float32 values a kernel of ``math``'s
    precision computes with — ``x`` itself at FP32, its float16 round
    trip at FP16, its int8 levels at INT8.  Elementwise, so it commutes
    with im2col."""
    if math.precision is DataType.FP32:
        return x.astype(np.float32, copy=False)
    if math.precision is DataType.FP16:
        return _fp16_round(x)
    if math.precision is DataType.INT8:
        _check_int8_scales(math.int8_scale_in, math.int8_scale_w)
        return _quantize_sym(x, math.int8_scale_in).astype(
            np.float32, copy=False
        )
    raise ValueError(f"unsupported precision {math.precision}")


def _matmul_fp16_split(
    a: np.ndarray, b: np.ndarray, split_k: int
) -> np.ndarray:
    """``a @ b`` for float16-valued float32 operands with a
    ``split_k``-chunked reduction.

    ``a`` is (M, K), ``b`` is (K, N).  Each chunk's product is computed
    in float32 (tensor cores accumulate wider than they store), rounded
    to float16, and the chunk partials are summed in float16.
    """
    k = a.shape[1]
    split_k = max(1, min(split_k, k))
    if split_k == 1:
        partial = (a @ b).astype(np.float16)
        # ``+ 0`` replicates accumulating into a zero buffer (it
        # normalizes -0.0 like the multi-chunk path does).
        return (partial + np.float16(0.0)).astype(np.float32)
    acc = np.zeros((a.shape[0], b.shape[1]), dtype=np.float16)
    for lo, hi in _index(_chunk_bounds, k, split_k):
        partial = (a[:, lo:hi] @ b[lo:hi, :]).astype(np.float16)
        acc = acc + partial  # fp16 + fp16 stays fp16
    return acc.astype(np.float32)


def _matmul_int8(
    qa: np.ndarray,
    b: np.ndarray,
    scale_a: float,
    scale_b: float,
) -> np.ndarray:
    """``qa @ b`` with exact integer accumulation, dequantized.

    ``qa`` holds activations already quantized with the per-tensor
    calibration scale ``scale_a`` (:func:`_operand`).  Weights (``b``)
    are quantized **per output channel** (per column), as TensorRT
    does — per-tensor weight scales would let one large channel destroy
    the resolution of all the others.  ``scale_b`` caps the per-channel
    scales (and channels without weights fall back to it): see
    :func:`_per_channel_scales`.

    The GEMM runs in float32 over K-chunks of at most
    :data:`_INT8_EXACT_K`, summed in float64, so every sum is the exact
    integer an int32 accumulator would hold.
    """
    _check_int8_scales(scale_a, scale_b)
    col_absmax = np.abs(b).max(axis=0)
    col_scales = _per_channel_scales(col_absmax, scale_b)
    qb = np.clip(np.rint(b / col_scales[None, :]), -127, 127).astype(
        np.float32, copy=False
    )
    step = _INT8_EXACT_K
    acc = (qa[:, :step] @ qb[:step]).astype(np.float64)
    for lo in range(step, qa.shape[1], step):
        acc += qa[:, lo : lo + step] @ qb[lo : lo + step]
    return (acc * (scale_a * col_scales[None, :])).astype(np.float32)


def _product(
    a: np.ndarray,
    b: np.ndarray,
    bias: Optional[np.ndarray],
    math: LayerMath,
) -> np.ndarray:
    """The product step: ``a @ b + bias`` as a fresh (M, N) float32
    array, for an ``a`` that went through :func:`_operand` and raw
    weights ``b``.

    float32 operands reach BLAS uncopied, in the memory order they
    arrive in: BLAS bits depend on each operand's C/F order but not on
    its leading dimension, so split-K column slices go in as views.
    """
    if math.precision is DataType.FP32:
        out = a @ b.astype(np.float32, copy=False)
    elif math.precision is DataType.FP16:
        out = _matmul_fp16_split(a, _fp16_round(b), math.split_k)
    elif math.precision is DataType.INT8:
        out = _matmul_int8(a, b, math.int8_scale_in, math.int8_scale_w)
    else:
        raise ValueError(f"unsupported precision {math.precision}")
    if bias is not None:
        out += bias.astype(np.float32, copy=False).reshape(-1)
    return out


def precision_matmul(
    a: np.ndarray, b: np.ndarray, math: LayerMath
) -> np.ndarray:
    """``a @ b`` under a :class:`LayerMath`: the operand step on ``a``,
    then the product step."""
    return _product(_operand(a, math), b, None, math)


# ----------------------------------------------------------------------
# spatial helpers
# ----------------------------------------------------------------------
def _pad_nchw(x: np.ndarray, pad: int) -> np.ndarray:
    if pad == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))


def _tap_slices(
    kernel: int, stride: int, out_h: int, out_w: int
) -> Iterator[Tuple[int, int, slice, slice]]:
    """For each kernel tap ``(ky, kx)``, in (ky, kx) order, the row and
    column slices of a padded map that the tap reads across all output
    pixels."""
    span_h = (out_h - 1) * stride + 1
    span_w = (out_w - 1) * stride + 1
    for ky in range(kernel):
        for kx in range(kernel):
            rows = slice(ky, ky + span_h, stride)
            cols = slice(kx, kx + span_w, stride)
            yield ky, kx, rows, cols


def im2col(
    x: np.ndarray, kernel: int, stride: int, pad: int
) -> Tuple[np.ndarray, int, int]:
    """Unfold ``x`` (N,C,H,W) into (N*OH*OW, C*k*k) patch rows, columns
    ordered (channel, ky, kx): one strided copy per kernel tap from a
    zero-padded NHWC copy of ``x``.

    The matrix is C-ordered, except that a single output pixel per
    image gives an F-ordered (N, C*k*k) matrix.  GEMM bits depend on
    operand order, and that is the order the gather-based im2col left
    there.
    """
    n, c, h, w = x.shape
    xp = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
    xp[:, pad : pad + h, pad : pad + w] = x.transpose(0, 2, 3, 1)
    out_h = (h + 2 * pad - kernel) // stride + 1
    out_w = (w + 2 * pad - kernel) // stride + 1
    shape = (n, out_h, out_w, c, kernel, kernel)
    if out_h * out_w == 1:
        patches = np.empty(shape[1:] + shape[:1], dtype=x.dtype).transpose(
            5, 0, 1, 2, 3, 4
        )
    else:
        patches = np.empty(shape, dtype=x.dtype)
    for ky, kx, rows, cols in _tap_slices(kernel, stride, out_h, out_w):
        patches[..., ky, kx] = xp[:, rows, cols]
    return patches.reshape(n * out_h * out_w, c * kernel * kernel), out_h, out_w


def _gather_channel_windows(
    xp: np.ndarray, kernel: int, stride: int, out_h: int, out_w: int
) -> np.ndarray:
    """Per-channel sliding windows ``(N, C, OH, OW, k*k)`` of a padded
    map, gathered contiguously through the cached index tensor."""
    n, c, h, w = xp.shape
    idx = _index(
        _channel_window_index, c, h, w, kernel, stride, out_h, out_w
    )
    return xp.reshape(n, -1)[:, idx]


# ----------------------------------------------------------------------
# layer ops
# ----------------------------------------------------------------------
def conv2d(
    x: np.ndarray,
    kernel: np.ndarray,
    bias: Optional[np.ndarray],
    stride: int,
    pad: int,
    math: LayerMath,
) -> np.ndarray:
    """Standard convolution. ``kernel`` is (OutC, InC, k, k)."""
    n = x.shape[0]
    out_c, in_c, k, _ = kernel.shape
    if x.shape[1] != in_c:
        raise ValueError(
            f"conv expects {in_c} input channels, got {x.shape[1]}"
        )
    cols, out_h, out_w = im2col(_operand(x, math), k, stride, pad)
    w2d = kernel.reshape(out_c, in_c * k * k).T  # (C*k*k, OutC)
    out = _product(cols, w2d, bias, math)
    return np.ascontiguousarray(
        out.reshape(n, out_h, out_w, out_c).transpose(0, 3, 1, 2)
    )


def depthwise_conv2d(
    x: np.ndarray,
    kernel: np.ndarray,
    bias: Optional[np.ndarray],
    stride: int,
    pad: int,
    math: LayerMath,
) -> np.ndarray:
    """Depthwise convolution. ``kernel`` is (C, 1, k, k).

    The FP16 path honors ``math.split_k`` over its ``k*k`` window
    reduction: each chunk's partial sum is rounded to float16 before
    the chunks are summed in float16, matching the module's split-K
    contract (and the non-depthwise matmul path).
    """
    n, c, _h, _w = x.shape
    k = kernel.shape[2]
    xp = _pad_nchw(x, pad)
    out_h = (xp.shape[2] - k) // stride + 1
    out_w = (xp.shape[3] - k) // stride + 1
    windows = _gather_channel_windows(xp, k, stride, out_h, out_w)
    w = kernel[:, 0].reshape(c, 1, 1, k * k)
    if math.precision is DataType.FP16:
        prod = _fp16_round(windows) * _fp16_round(w)
        k2 = k * k
        split_k = max(1, min(math.split_k, k2))
        acc = np.zeros(prod.shape[:4], dtype=np.float16)
        for lo, hi in _index(_chunk_bounds, k2, split_k):
            partial = prod[..., lo:hi].sum(axis=-1).astype(np.float16)
            acc = acc + partial  # fp16 + fp16 stays fp16
        out = acc.astype(np.float32)
    elif math.precision is DataType.INT8:
        _check_int8_scales(math.int8_scale_in, math.int8_scale_w)
        qx = _quantize_sym(windows, math.int8_scale_in)
        # Per-channel weight scales (TensorRT convention), capped at
        # the calibrated per-tensor scale.
        ch_absmax = np.abs(w).max(axis=(1, 2, 3))
        ch_scales = _per_channel_scales(ch_absmax, math.int8_scale_w)
        qw = np.clip(
            np.rint(w / ch_scales[:, None, None, None]), -127, 127
        )
        prod = qx * qw
        out = prod.sum(axis=-1)
        out = (
            out * (math.int8_scale_in * ch_scales[None, :, None, None])
        ).astype(np.float32)
    else:
        prod = windows * w
        out = prod.sum(axis=-1).astype(np.float32, copy=False)
    if bias is not None:
        out = out + bias.reshape(1, -1, 1, 1)
    return np.ascontiguousarray(out.astype(np.float32, copy=False))


def deconv2d(
    x: np.ndarray,
    kernel: np.ndarray,
    bias: Optional[np.ndarray],
    stride: int,
    math: LayerMath,
) -> np.ndarray:
    """Transposed convolution (used by the FCN segmentation head).

    Each input pixel's ``out_c x k x k`` stamp is computed as one
    matmul; the stamps are then placed by a vectorized scatter — a
    strided assignment when stamps cannot overlap (``k <= stride``),
    an ordered ``np.add.at`` accumulation otherwise.
    """
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
        # Disjoint stamps: write every stamp with one strided
        # assignment into a (h*stride, w*stride) grid, then crop.
        buf = np.zeros((n, out_c, h * stride, w * stride), dtype=np.float32)
        view = buf.reshape(n, out_c, h, stride, w, stride)
        view[:, :, :, :k, :, :k] = stamp.transpose(0, 3, 1, 4, 2, 5)
        # Accumulating into zeros normalizes -0.0 stamps; keep that.
        np.add(buf, np.float32(0.0), out=buf)
        out = np.ascontiguousarray(buf[:, :, :out_h, :out_w])
    else:
        idx = _index(_deconv_scatter_index, h, w, k, stride, out_w)
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


def fully_connected(
    x: np.ndarray,
    kernel: np.ndarray,
    bias: Optional[np.ndarray],
    math: LayerMath,
) -> np.ndarray:
    """Dense layer. ``kernel`` is (OutUnits, InUnits); x is flattened."""
    flat = x.reshape(x.shape[0], -1)
    return _product(_operand(flat, math), kernel.T, bias, math)


def max_pool(
    x: np.ndarray, kernel: int, stride: int, pad: int, same: bool = False
) -> np.ndarray:
    """Max pooling as a running ``np.maximum`` over the ``k*k`` strided
    taps of a ``(C, H, W, N)`` copy of the ``-inf``-padded input.

    The result is returned as an ``(N, C, OH, OW)`` view whose memory
    order is ``(C, OH, OW, N)``.  Consumers see those strides —
    ``fully_connected`` hands them to BLAS and numpy reductions follow
    them — so the layout is part of the op's contract.
    """
    n, c, in_h, in_w = x.shape
    h, w = in_h + 2 * pad, in_w + 2 * pad
    if same:
        out_h = -(-h // stride)
        out_w = -(-w // stride)
    else:
        # Shared with static inference so executor buffers always
        # match the declared shapes (includes the Caffe edge clamp).
        out_h, out_w = pool_output_hw(in_h, in_w, kernel, stride, pad)
    # Pad on the right so ceil-mode windows are complete.
    need_h = (out_h - 1) * stride + kernel
    need_w = (out_w - 1) * stride + kernel
    xp = np.full((c, max(h, need_h), max(w, need_w), n), -np.inf, dtype=x.dtype)
    xp[:, pad : pad + in_h, pad : pad + in_w] = x.transpose(1, 2, 3, 0)
    taps = (
        xp[:, rows, cols]
        for _ky, _kx, rows, cols in _tap_slices(kernel, stride, out_h, out_w)
    )
    out = next(taps).copy()
    for tap in taps:
        np.maximum(out, tap, out=out)
    return out.transpose(3, 0, 1, 2).astype(np.float32, copy=False)


def avg_pool(x: np.ndarray, kernel: int, stride: int, pad: int) -> np.ndarray:
    """Average pooling with Caffe ceil-mode divisor semantics.

    The user-declared zero padding counts toward each window's mean,
    but the synthetic right/bottom rows added only to complete
    ceil-mode windows are out of bounds: they are excluded from the
    divisor, so edge windows average over their true element count
    instead of being deflated by phantom zeros.
    """
    in_h, in_w = x.shape[2], x.shape[3]
    xp = _pad_nchw(x, pad)
    n, c, h, w = xp.shape
    out_h, out_w = pool_output_hw(in_h, in_w, kernel, stride, pad)
    need_h = (out_h - 1) * stride + kernel
    need_w = (out_w - 1) * stride + kernel
    if need_h > h or need_w > w:
        xp = np.pad(
            xp,
            ((0, 0), (0, 0), (0, max(0, need_h - h)), (0, max(0, need_w - w))),
            mode="constant",
        )
    windows = _gather_channel_windows(xp, kernel, stride, out_h, out_w)
    divisors = _index(_avg_pool_divisors, h, w, kernel, stride, out_h, out_w)
    return (windows.sum(axis=-1) / divisors).astype(np.float32, copy=False)


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    return x.mean(axis=(2, 3), keepdims=True).astype(np.float32)


def global_max_pool(x: np.ndarray) -> np.ndarray:
    return x.max(axis=(2, 3), keepdims=True).astype(np.float32)


def activation(
    x: np.ndarray, function: str, slope: float = 0.1
) -> np.ndarray:
    if function == "relu":
        return np.maximum(x, 0.0)
    if function == "relu6":
        return np.clip(x, 0.0, 6.0)
    if function == "leaky_relu":
        return np.where(x > 0.0, x, slope * x).astype(np.float32)
    if function == "sigmoid":
        return (1.0 / (1.0 + np.exp(-np.clip(x, -60, 60)))).astype(np.float32)
    if function == "tanh":
        return np.tanh(x).astype(np.float32)
    raise ValueError(f"unknown activation {function!r}")


def batchnorm(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    epsilon: float,
) -> np.ndarray:
    shape = (1, -1) + (1,) * (x.ndim - 2)
    inv = gamma / np.sqrt(var + epsilon)
    return ((x - mean.reshape(shape)) * inv.reshape(shape)
            + beta.reshape(shape)).astype(np.float32)


def channel_scale(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray
) -> np.ndarray:
    shape = (1, -1) + (1,) * (x.ndim - 2)
    return (x * gamma.reshape(shape) + beta.reshape(shape)).astype(np.float32)


def lrn(
    x: np.ndarray, size: int, alpha: float, beta: float, k: float
) -> np.ndarray:
    """Local response normalization across channels (AlexNet-era)."""
    sq = x ** 2
    n, c, h, w = x.shape
    half = size // 2
    padded = np.zeros((n, c + 2 * half, h, w), dtype=np.float32)
    padded[:, half : half + c] = sq
    # One windowed sum over the channel axis instead of `size` shifted
    # adds; numpy reduces the short trailing axis sequentially, so the
    # result is bit-identical to the historical offset loop.
    windows = np.lib.stride_tricks.sliding_window_view(padded, size, axis=1)
    window_sum = windows[:, :c].sum(axis=-1)
    denom = (k + alpha * window_sum / size) ** beta
    return (x / denom).astype(np.float32)


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the class axis.

    Rank-2 ``(N, C)`` inputs normalize across ``C``.  Rank-4
    ``(N, C, H, W)`` inputs normalize **per pixel** over the channel
    axis — the FCN segmentation head emits per-pixel class scores, and
    flattening it to ``(N, C*H*W)`` would normalize each pixel against
    every other pixel in the image.
    """
    if x.ndim == 4:
        shifted = x - x.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        out = exp / exp.sum(axis=1, keepdims=True)
        return out.astype(np.float32, copy=False)
    flat = x.reshape(x.shape[0], -1)
    shifted = flat - flat.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    out = exp / exp.sum(axis=1, keepdims=True)
    return out.reshape(x.shape).astype(np.float32, copy=False)


def concat(parts: Sequence[np.ndarray], axis: int) -> np.ndarray:
    # +1: arrays carry a leading batch dim the IR shape omits.
    return np.concatenate(parts, axis=axis + 1)


def elementwise(parts: Sequence[np.ndarray], op: str) -> np.ndarray:
    out = parts[0]
    for other in parts[1:]:
        if op == "add":
            out = out + other
        elif op == "mul":
            out = out * other
        elif op == "max":
            out = np.maximum(out, other)
        else:
            raise ValueError(f"unknown elementwise op {op!r}")
    return out.astype(np.float32)


def upsample_nearest(x: np.ndarray, factor: int) -> np.ndarray:
    return x.repeat(factor, axis=2).repeat(factor, axis=3)


# ----------------------------------------------------------------------
# detection heads
# ----------------------------------------------------------------------
def box_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two (..., 4) box arrays [x1,y1,x2,y2]."""
    ax1, ay1, ax2, ay2 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bx1, by1, bx2, by2 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    ix1 = np.maximum(ax1, bx1)
    iy1 = np.maximum(ay1, by1)
    ix2 = np.minimum(ax2, bx2)
    iy2 = np.minimum(ay2, by2)
    inter = np.clip(ix2 - ix1, 0, None) * np.clip(iy2 - iy1, 0, None)
    area_a = np.clip(ax2 - ax1, 0, None) * np.clip(ay2 - ay1, 0, None)
    area_b = np.clip(bx2 - bx1, 0, None) * np.clip(by2 - by1, 0, None)
    union = area_a + area_b - inter
    return np.where(union > 0, inter / np.maximum(union, 1e-9), 0.0)


def nms(
    boxes: np.ndarray, scores: np.ndarray, iou_threshold: float
) -> List[int]:
    """Greedy non-maximum suppression; returns kept indices.

    The IoU of every pair is computed once, as one ``K x K`` matrix;
    the greedy loop then only reads its rows.
    """
    order = np.argsort(-scores)
    overlaps = box_iou(boxes[:, None, :], boxes[None, :, :]) >= iou_threshold
    keep: List[int] = []
    suppressed = np.zeros(len(boxes), dtype=bool)
    for idx in order:
        if suppressed[idx]:
            continue
        keep.append(int(idx))
        suppressed |= overlaps[idx]
        suppressed[idx] = True
    return keep


def detection_output(
    loc: np.ndarray,
    conf: np.ndarray,
    num_classes: int,
    max_boxes: int,
    score_threshold: float,
    nms_iou: float,
) -> np.ndarray:
    """SSD-style decoding of a grid of box predictions.

    ``loc``  is (N, 4, H, W)  — box offsets per cell, in [0,1] units.
    ``conf`` is (N, num_classes, H, W) — class logits per cell.
    Returns (N, max_boxes, 6) rows of [class, score, x1, y1, x2, y2];
    unused rows have class = -1.

    Decoding and class softmax run batched over all images; only the
    inherently sequential greedy NMS remains per image, and it sees
    only the cells that survive the score threshold.
    """
    n, _four, h, w = loc.shape
    out = np.full((n, max_boxes, 6), -1.0, dtype=np.float32)
    cell_cx, cell_cy = _index(_detection_cell_centers, h, w)
    # Decode center-size offsets relative to the cell — all images at
    # once (elementwise, so identical to the per-image decode).
    cx = cell_cx[None] + np.tanh(loc[:, 0]) * 0.5 / w
    cy = cell_cy[None] + np.tanh(loc[:, 1]) * 0.5 / h
    bw = np.clip(np.exp(np.clip(loc[:, 2], -4, 2)) / w * 2.0, 1e-3, 1.0)
    bh = np.clip(np.exp(np.clip(loc[:, 3], -4, 2)) / h * 2.0, 1e-3, 1.0)
    boxes = np.stack(
        [cx - bw / 2, cy - bh / 2, cx + bw / 2, cy + bh / 2], axis=-1
    ).reshape(n, -1, 4)
    logits = conf.reshape(n, num_classes, -1).transpose(0, 2, 1)
    shifted = logits - logits.max(axis=2, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=2, keepdims=True)
    # Class 0 is background.
    cls = probs[:, :, 1:].argmax(axis=2) + 1
    score = np.take_along_axis(probs, cls[:, :, None], axis=2)[:, :, 0]
    for i in range(n):
        mask = score[i] >= score_threshold
        if not mask.any():
            continue
        kept = nms(boxes[i][mask], score[i][mask], nms_iou)
        sel = np.flatnonzero(mask)[kept][:max_boxes]
        rows = np.stack(
            [
                cls[i, sel].astype(np.float32),
                score[i, sel].astype(np.float32),
                boxes[i, sel, 0],
                boxes[i, sel, 1],
                boxes[i, sel, 2],
                boxes[i, sel, 3],
            ],
            axis=-1,
        )
        out[i, : len(rows)] = rows
    return out


def region_head(x: np.ndarray) -> np.ndarray:
    """YOLO region layer: sigmoid objectness/coords, raw class logits.

    Keeps the tensor shape; channel layout is (4 coords + 1 obj +
    classes) and only the first five channels are squashed.
    """
    out = x.copy()
    out[:, :5] = 1.0 / (1.0 + np.exp(-np.clip(x[:, :5], -60, 60)))
    return out.astype(np.float32, copy=False)
