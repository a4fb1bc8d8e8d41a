"""Byte-identity acceptance suite for the hot-path caches.

The memoization layers (window-gather and scatter index caches in
:mod:`repro.runtime.ops`, workload/cost memos in :mod:`repro.hardware`,
timeline skeletons in :func:`repro.hardware.gpu.simulate_inference`)
are pure-function caches: with caching enabled and disabled, every
engine must produce the *same output bytes* and the *same timeline*,
draw for draw.  This suite runs zoo-representative graphs — LRN/concat
(GoogLeNet), depthwise (MobileNet), deconvolution (FCN) — across batch
{1, 8} and {FP32, FP16, INT8} and compares byte-exactly.  im2col and
max pooling copy strided kernel taps and cache nothing; their oracle is
the gather implementation in ``tests/runtime/reference_ops.py``.
"""

import numpy as np
import pytest

from repro.analysis.engines import EngineFarm
from repro.caching import caches_disabled, clear_caches
from repro.engine.builder import PrecisionMode
from repro.engine.engine import ExecutionContext

MODELS = ("googlenet", "mobilenet_v1", "fcn_resnet18_cityscapes")
PRECISIONS = (PrecisionMode.FP32, PrecisionMode.FP16, PrecisionMode.INT8)
BATCHES = (1, 8)


def _build_context(model, precision):
    farm = EngineFarm(precision=precision, pretrained=False)
    engine = farm.engine(model, "NX")
    return ExecutionContext(engine, engine.device)


def _forward_bytes(ctx, batch):
    name = next(iter(ctx.engine.graph.input_specs))
    shape = ctx.engine.graph.input_specs[name].shape
    x = (
        np.random.default_rng(11)
        .standard_normal((batch,) + shape)
        .astype(np.float32)
    )
    result = ctx.execute(**{name: x})
    return {k: v.tobytes() for k, v in result.outputs.items()}


def _timeline(ctx, batch, seed=5):
    rng = np.random.default_rng(seed)
    events = []
    for _ in range(3):
        t = ctx.time_inference(clock_mhz=921.6, rng=rng, batch_size=batch)
        for e in t.memcpy_events:
            events.append((e.label, e.bytes, e.calls, e.start_us, e.duration_us))
        for e in t.kernel_events:
            events.append(
                (e.kernel_name, e.layer_name, e.start_us, e.duration_us)
            )
    return events


@pytest.mark.parametrize("precision", PRECISIONS, ids=lambda p: p.value)
@pytest.mark.parametrize("model", MODELS)
class TestCachedEqualsUncached:
    def test_outputs_and_timing_byte_identical(self, model, precision):
        clear_caches()
        cached_ctx = _build_context(model, precision)
        cached = {
            batch: (
                _forward_bytes(cached_ctx, batch),
                _timeline(cached_ctx, batch),
            )
            for batch in BATCHES
        }
        with caches_disabled():
            plain_ctx = _build_context(model, precision)
            for batch in BATCHES:
                out_bytes, timeline = cached[batch]
                assert _forward_bytes(plain_ctx, batch) == out_bytes
                assert _timeline(plain_ctx, batch) == timeline


class TestCacheWarmth:
    def test_second_run_hits_same_bytes(self):
        # Cold vs warm caches (same process) must also agree — catches
        # any cache that stores a mutated value.
        clear_caches()
        ctx = _build_context("googlenet", PrecisionMode.FP16)
        first = _forward_bytes(ctx, 4)
        second = _forward_bytes(ctx, 4)
        assert first == second
        assert _timeline(ctx, 4) == _timeline(ctx, 4)

    def test_caches_disabled_context_restores(self):
        from repro.caching import caching_enabled

        assert caching_enabled()
        with caches_disabled():
            assert not caching_enabled()
        assert caching_enabled()
