"""Accuracy experiments: paper Tables III and IV.

Compares top-1 error of TensorRT-style engines (built on NX and AGX)
against the unoptimized FP32 model, on the benign dataset and on the
adversarial dataset at severities 1 and 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.config import current_scale
from repro.analysis.engines import EngineFarm
from repro.data.corruptions import corrupt_batch
from repro.data.synthetic import LabeledBatch, SyntheticImageNet
from repro.metrics.accuracy import top1_error
from repro.runtime.executor import GraphExecutor

#: The classification models the paper evaluates in Tables III/IV.
ACCURACY_MODELS = ("alexnet", "resnet18", "vgg16")

_EVAL_BATCH = 100


def scores_for(
    runner, images: np.ndarray, input_name: str = "data"
) -> np.ndarray:
    """Class scores for a batch through a GraphExecutor-like runner."""
    parts = []
    for start in range(0, len(images), _EVAL_BATCH):
        chunk = images[start : start + _EVAL_BATCH]
        parts.append(runner.run(**{input_name: chunk}).primary())
    return np.concatenate(parts, axis=0)


def engine_scores(engine, images: np.ndarray) -> np.ndarray:
    """Class scores through a compiled engine."""
    context = engine.create_execution_context()
    parts = []
    for start in range(0, len(images), _EVAL_BATCH):
        chunk = images[start : start + _EVAL_BATCH]
        parts.append(
            context.execute(**{engine.input_name: chunk}).primary()
        )
    return np.concatenate(parts, axis=0)


@dataclass
class AccuracyRow:
    """One model's row of Table III (or one severity of Table IV)."""

    model: str
    agx_error: float
    nx_error: float
    unoptimized_error: float


def benign_accuracy(
    farm: Optional[EngineFarm] = None,
    models: Sequence[str] = ACCURACY_MODELS,
    dataset: Optional[SyntheticImageNet] = None,
) -> List[AccuracyRow]:
    """Table III: top-1 error on the benign dataset."""
    scale = current_scale()
    farm = farm or EngineFarm()
    dataset = dataset or SyntheticImageNet()
    test = dataset.batch(
        scale.benign_images_per_class,
        classes=range(scale.benign_classes),
        seed=777,
    )
    rows = []
    for model in models:
        graph = farm.graph(model)
        unopt = top1_error(
            scores_for(GraphExecutor(graph), test.images), test.labels
        )
        nx = top1_error(
            engine_scores(farm.engine(model, "NX", 0), test.images),
            test.labels,
        )
        agx = top1_error(
            engine_scores(farm.engine(model, "AGX", 0), test.images),
            test.labels,
        )
        rows.append(
            AccuracyRow(
                model=model, agx_error=agx, nx_error=nx,
                unoptimized_error=unopt,
            )
        )
    return rows


@dataclass
class AdversarialRow:
    """One (model, severity) row of Table IV."""

    model: str
    severity: int
    agx_error: float
    nx_error: float
    unoptimized_error: float


def _adversarial_batch(
    dataset: SyntheticImageNet,
    noises: Sequence[str],
    severity: int,
    classes: int,
    images_per_class: int,
) -> LabeledBatch:
    """The adversarial set: every noise applied to a benign draw."""
    base = dataset.batch(
        images_per_class, classes=range(classes), seed=888
    )
    images = []
    labels = []
    for noise in noises:
        images.append(corrupt_batch(base.images, noise, severity))
        labels.append(base.labels)
    return LabeledBatch(
        images=np.concatenate(images, axis=0),
        labels=np.concatenate(labels, axis=0),
    )


def adversarial_accuracy(
    farm: Optional[EngineFarm] = None,
    models: Sequence[str] = ACCURACY_MODELS,
    severities: Sequence[int] = (1, 5),
    dataset: Optional[SyntheticImageNet] = None,
) -> List[AdversarialRow]:
    """Table IV: top-1 error on the adversarial dataset."""
    scale = current_scale()
    farm = farm or EngineFarm()
    dataset = dataset or SyntheticImageNet()
    rows = []
    batches: Dict[int, LabeledBatch] = {
        severity: _adversarial_batch(
            dataset,
            scale.adversarial_noises,
            severity,
            scale.adversarial_classes,
            scale.adversarial_images_per_class,
        )
        for severity in severities
    }
    for model in models:
        graph = farm.graph(model)
        unopt_runner = GraphExecutor(graph)
        nx_engine = farm.engine(model, "NX", 0)
        agx_engine = farm.engine(model, "AGX", 0)
        for severity in severities:
            batch = batches[severity]
            rows.append(
                AdversarialRow(
                    model=model,
                    severity=severity,
                    agx_error=top1_error(
                        engine_scores(agx_engine, batch.images),
                        batch.labels,
                    ),
                    nx_error=top1_error(
                        engine_scores(nx_engine, batch.images),
                        batch.labels,
                    ),
                    unoptimized_error=top1_error(
                        scores_for(unopt_runner, batch.images),
                        batch.labels,
                    ),
                )
            )
    return rows
