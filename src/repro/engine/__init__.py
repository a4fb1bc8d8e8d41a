"""The inference engine under study: a TensorRT-like optimizer/runtime.

Implements the five optimization steps of the paper's Figure 2:

1. dead-layer removal,
2. vertical fusion (conv + batchnorm/scale + activation),
3. horizontal merging of sibling layers,
4. weight/activation quantization (FP16, calibrated INT8),
5. mapping of optimized layers onto a catalog of pre-implemented CUDA
   kernels via *timing-based tactic selection*.

Step 5 is where the paper's non-determinism findings originate: tactics
are chosen by timing candidate kernels on the target device, and timing
measurements are noisy, so two builds of the same network can select
different kernels — with different latency *and* bit-different numerics.
This package reproduces that mechanism faithfully rather than injecting
artificial randomness into outputs.
"""

from repro.engine.builder import BuilderConfig, EngineBuilder, PrecisionMode
from repro.engine.engine import (
    Engine,
    ExecutionContext,
    InferenceOutcome,
    LayerBinding,
)
from repro.engine.kernels import KernelCatalog, KernelSpec
from repro.engine.store import (
    EnginePool,
    EngineStore,
    StoreKey,
    StoreResult,
    config_fingerprint,
    network_digest,
    store_key,
)

__all__ = [
    "BuilderConfig",
    "Engine",
    "EngineBuilder",
    "EnginePool",
    "EngineStore",
    "ExecutionContext",
    "InferenceOutcome",
    "KernelCatalog",
    "KernelSpec",
    "LayerBinding",
    "PrecisionMode",
    "StoreKey",
    "StoreResult",
    "config_fingerprint",
    "network_digest",
    "store_key",
]
