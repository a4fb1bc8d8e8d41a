"""Per-layer workload characterization: FLOPs, bytes, GEMM dimensions.

The cost model prices a kernel from (a) the kernel's own properties
(tile size, precision, prefetch depth) and (b) the *workload* of the
layer it executes.  This module derives the workload from the IR layer
and the inferred tensor shapes.

Workload derivation is a pure function of a small hashable **layer
digest** — (kind, the attrs the formulas read, in/out shapes, weight
bytes, activation dtype) — so :func:`layer_workload` is memoized: an
engine build, a timing sweep, and a fleet of serving devices all
re-derive the same handful of digests millions of times.
:mod:`repro.caching` controls the memo; the byte-identity suite
asserts cached == uncached.  A workload describes one image; the cost
table (:mod:`repro.hardware.cost`) applies the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from repro.caching import caching_enabled, register_cache
from repro.graph.ir import DataType, Layer, LayerKind

Shape = Tuple[int, ...]


@dataclass(frozen=True)
class LayerWorkload:
    """Work performed by one layer for a single image (batch 1).

    GEMM view (for conv/fc kernels): output is an (M x N) matrix reduced
    over K.  Non-GEMM layers set M=N=1, K=0 and are priced purely on
    bytes + a small per-element cost.
    """

    flops: float
    bytes_in: int
    bytes_w: int
    bytes_out: int
    gemm_m: int  # output channels / units
    gemm_n: int  # output pixels
    gemm_k: int  # reduction length
    elements_out: int
    category: str  # kernel-catalog category key

    @property
    def total_bytes(self) -> int:
        return self.bytes_in + self.bytes_w + self.bytes_out


#: Map from layer kind to kernel-catalog category.
_CATEGORY: Dict[LayerKind, str] = {
    LayerKind.CONVOLUTION: "conv",
    LayerKind.FUSED_CONV_BLOCK: "conv",
    LayerKind.MERGED_CONV: "conv",
    LayerKind.DEPTHWISE_CONVOLUTION: "depthwise",
    LayerKind.DECONVOLUTION: "deconv",
    LayerKind.FULLY_CONNECTED: "gemm",
    LayerKind.FUSED_FC_BLOCK: "gemm",
    LayerKind.POOLING: "pooling",
    LayerKind.ACTIVATION: "pointwise",
    LayerKind.BATCHNORM: "pointwise",
    LayerKind.SCALE: "pointwise",
    LayerKind.LRN: "lrn",
    LayerKind.SOFTMAX: "softmax",
    LayerKind.CONCAT: "copy",
    LayerKind.ELEMENTWISE: "pointwise",
    LayerKind.FLATTEN: "copy",
    LayerKind.DROPOUT: "copy",
    LayerKind.IDENTITY: "copy",
    LayerKind.UPSAMPLE: "copy",
    LayerKind.PERMUTE: "copy",
    LayerKind.RESHAPE: "copy",
    LayerKind.DETECTION_OUTPUT: "detection",
    LayerKind.REGION: "pointwise",
    LayerKind.INPUT: "copy",
}


def _vol(shape: Shape) -> int:
    return int(np.prod(shape)) if shape else 1


#: The only attrs the workload formulas read; everything else on the
#: layer (names, weights, fusion bookkeeping) cannot change the result.
_WORKLOAD_ATTRS = ("kernel", "out_channels", "splits", "out_units", "global", "size")

#: (kind, relevant attrs, in shapes, out shapes, weight bytes, dtype)
Digest = Tuple[
    LayerKind,
    Tuple[Tuple[str, object], ...],
    Tuple[Shape, ...],
    Tuple[Shape, ...],
    int,
    DataType,
]


def layer_digest(
    layer: Layer,
    tensor_shapes: Dict[str, Shape],
    act_dtype: DataType = DataType.FP32,
) -> Digest:
    """Hashable digest of everything :func:`layer_workload` depends on.

    Two layers with equal digests have identical workloads — the basis
    for the memoization (and usable by callers as a dedup key).
    """
    attrs = layer.attrs
    frozen_attrs = tuple(
        (
            key,
            tuple(attrs[key])
            if isinstance(attrs[key], (list, tuple))
            else attrs[key],
        )
        for key in _WORKLOAD_ATTRS
        if key in attrs
    )
    in_shapes = tuple(tuple(tensor_shapes[t]) for t in layer.inputs)
    out_shapes = tuple(tuple(tensor_shapes[t]) for t in layer.outputs)
    return (
        layer.kind,
        frozen_attrs,
        in_shapes,
        out_shapes,
        layer.weight_bytes(),
        act_dtype,
    )


def layer_workload(
    layer: Layer,
    tensor_shapes: Dict[str, Shape],
    act_dtype: DataType = DataType.FP32,
) -> LayerWorkload:
    """Characterize ``layer`` given the graph's tensor shapes.

    ``act_dtype`` prices activation traffic (engines moving FP16
    activations halve their DRAM bytes — part of the optimized path's
    throughput win).  The derivation is memoized by
    :func:`layer_digest`; disable via :mod:`repro.caching` to force
    recomputation.
    """
    digest = layer_digest(layer, tensor_shapes, act_dtype)
    if caching_enabled():
        return _workload_cached(digest)
    return _workload_from_digest(digest)


@lru_cache(maxsize=None)
def _workload_cached(digest: Digest) -> LayerWorkload:
    return _workload_from_digest(digest)


register_cache(_workload_cached.cache_clear)


def _workload_from_digest(digest: Digest) -> LayerWorkload:
    kind, attr_items, in_shapes, out_shapes, bytes_w, act_dtype = digest
    attrs = dict(attr_items)
    act_size = act_dtype.itemsize
    bytes_in = sum(_vol(s) for s in in_shapes) * act_size
    bytes_out = sum(_vol(s) for s in out_shapes) * act_size
    elements_out = sum(_vol(s) for s in out_shapes)
    category = _CATEGORY[kind]

    if kind in (
        LayerKind.CONVOLUTION,
        LayerKind.FUSED_CONV_BLOCK,
        LayerKind.MERGED_CONV,
    ):
        in_c = in_shapes[0][0]
        k = int(attrs.get("kernel", 3))
        if kind is LayerKind.MERGED_CONV:
            out_c = sum(int(s) for s in attrs["splits"])
        else:
            out_c = int(attrs["out_channels"])
        out_pixels = out_shapes[0][1] * out_shapes[0][2]
        gemm_k = in_c * k * k
        flops = 2.0 * out_c * out_pixels * gemm_k
        return LayerWorkload(
            flops, bytes_in, bytes_w, bytes_out,
            out_c, out_pixels, gemm_k, elements_out, category,
        )

    if kind is LayerKind.DEPTHWISE_CONVOLUTION:
        c, out_h, out_w = out_shapes[0]
        k = int(attrs.get("kernel", 3))
        flops = 2.0 * c * out_h * out_w * k * k
        return LayerWorkload(
            flops, bytes_in, bytes_w, bytes_out,
            c, out_h * out_w, k * k, elements_out, category,
        )

    if kind is LayerKind.DECONVOLUTION:
        in_c = in_shapes[0][0]
        in_pixels = in_shapes[0][1] * in_shapes[0][2]
        k = int(attrs.get("kernel", 2))
        out_c = int(attrs["out_channels"])
        flops = 2.0 * out_c * in_pixels * in_c * k * k
        return LayerWorkload(
            flops, bytes_in, bytes_w, bytes_out,
            out_c * k * k, in_pixels, in_c, elements_out, category,
        )

    if kind in (LayerKind.FULLY_CONNECTED, LayerKind.FUSED_FC_BLOCK):
        in_units = _vol(in_shapes[0])
        out_units = int(attrs["out_units"])
        flops = 2.0 * out_units * in_units
        return LayerWorkload(
            flops, bytes_in, bytes_w, bytes_out,
            out_units, 1, in_units, elements_out, category,
        )

    if kind is LayerKind.POOLING:
        if attrs.get("global"):
            window = in_shapes[0][1] * in_shapes[0][2]
        else:
            window = int(attrs.get("kernel", 2)) ** 2
        flops = float(elements_out * window)
        return LayerWorkload(
            flops, bytes_in, bytes_w, bytes_out,
            1, 1, 0, elements_out, category,
        )

    if kind is LayerKind.LRN:
        size = int(attrs.get("size", 5))
        flops = float(elements_out * (size + 4))
        return LayerWorkload(
            flops, bytes_in, bytes_w, bytes_out,
            1, 1, 0, elements_out, category,
        )

    if kind is LayerKind.DETECTION_OUTPUT:
        cells = _vol(in_shapes[0]) // 4 if in_shapes else 1
        # decode + sort + NMS: ~O(cells log cells)
        flops = float(cells * (20 + int(np.log2(max(cells, 2)))))
        return LayerWorkload(
            flops, bytes_in, bytes_w, bytes_out,
            1, 1, 0, elements_out, category,
        )

    # Pointwise / copy-ish layers.
    flops = float(2 * elements_out)
    return LayerWorkload(
        flops, bytes_in, bytes_w, bytes_out,
        1, 1, 0, elements_out, category,
    )
