"""Executor-level oracle: a zoo engine's forward pass must give the same
output bytes on the optimized ops as on the reference ops of
:mod:`tests.runtime.reference_ops`.

The comparison runs both forwards on this machine, so unlike a committed
digest it does not depend on the host's BLAS kernel.  Tier-1 runs a few
models (``tests/runtime/test_forward_oracle.py``); CI runs the whole
zoo::

    PYTHONPATH=src python -m tests.runtime.forward_oracle --batch 8
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.engines import EngineFarm
from repro.engine.builder import PrecisionMode
from repro.models import MODEL_REGISTRY, list_models

from tests.runtime import reference_ops

PRECISIONS = (PrecisionMode.FP32, PrecisionMode.FP16, PrecisionMode.INT8)


@lru_cache(maxsize=None)
def _farm(precision: PrecisionMode) -> EngineFarm:
    return EngineFarm(precision=precision, pretrained=False, base_seed=7)


def mismatches(
    model: str, precision: PrecisionMode, batch: int, seed: int = 7
) -> List[str]:
    """Names of the engine outputs whose bytes, dtype or shape differ
    between the optimized and the reference ops (empty when they all
    match).  INT8 engines are calibrated, so their layers really run
    INT8 math."""
    farm = _farm(precision)
    name = MODEL_REGISTRY[model].input_name
    shape = farm.graph(model).input_specs[name].shape
    rng = np.random.default_rng(seed)
    calibration = rng.standard_normal((4,) + shape).astype(np.float32)
    x = rng.standard_normal((batch,) + shape).astype(np.float32)
    engine = farm.engine(
        model,
        "NX",
        calibration_batch=(
            calibration if precision is PrecisionMode.INT8 else None
        ),
    )
    context = engine.create_execution_context()
    got = context.execute(**{name: x}).outputs
    with reference_ops.patched():
        want = context.execute(**{name: x}).outputs
    return [
        out
        for out in want
        if got[out].dtype != want[out].dtype
        or got[out].shape != want[out].shape
        or got[out].tobytes() != want[out].tobytes()
    ]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--models", default=",".join(list_models()),
        help="comma-separated zoo models (default: all 13)",
    )
    parser.add_argument(
        "--precisions", default="fp32,fp16,int8",
        help="comma-separated precisions (default: fp32,fp16,int8)",
    )
    parser.add_argument("--batch", type=int, default=8)
    args = parser.parse_args(argv)
    failed = 0
    for model in args.models.split(","):
        for precision in args.precisions.split(","):
            bad = mismatches(model, PrecisionMode(precision), args.batch)
            failed += bool(bad)
            status = "MISMATCH " + ",".join(bad) if bad else "ok"
            print(f"{model:26s} {precision:5s} batch {args.batch}: {status}")
    print(f"forward oracle: {failed} mismatching model/precision pairs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
