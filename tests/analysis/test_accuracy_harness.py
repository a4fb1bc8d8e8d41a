"""Focused tests for the accuracy-harness plumbing (the full tables run
in benchmarks/)."""

import numpy as np

from repro.analysis.accuracy import (
    AccuracyRow,
    _adversarial_batch,
    engine_scores,
    scores_for,
)
from repro.data.synthetic import SyntheticImageNet
from repro.runtime.executor import GraphExecutor


class TestScoreHelpers:
    def test_scores_for_batches_consistently(self, small_cnn, images16):
        runner = GraphExecutor(small_cnn)
        whole = runner.run(data=images16).primary()
        chunked = scores_for(runner, images16)
        np.testing.assert_allclose(whole, chunked, rtol=1e-5, atol=1e-6)

    def test_engine_scores_shape(self, farm):
        engine = farm.engine("alexnet", "NX", 0)
        images = np.zeros((5, 3, 32, 32), dtype=np.float32)
        scores = engine_scores(engine, images)
        assert scores.shape == (5, 100)

    def test_adversarial_batch_composition(self):
        dataset = SyntheticImageNet(num_classes=10, image_size=16, seed=3)
        batch = _adversarial_batch(
            dataset,
            noises=("gaussian_noise", "contrast"),
            severity=1,
            classes=4,
            images_per_class=2,
        )
        # 2 noises x 4 classes x 2 images.
        assert len(batch) == 16
        assert set(batch.labels) == {0, 1, 2, 3}

    def test_adversarial_batch_severity_matters(self):
        dataset = SyntheticImageNet(num_classes=5, image_size=16, seed=3)
        mild = _adversarial_batch(
            dataset, ("gaussian_noise",), 1, 3, 2
        )
        harsh = _adversarial_batch(
            dataset, ("gaussian_noise",), 5, 3, 2
        )
        base = dataset.batch(2, classes=range(3), seed=888)
        mild_delta = np.abs(mild.images - base.images).mean()
        harsh_delta = np.abs(harsh.images - base.images).mean()
        assert harsh_delta > mild_delta


class TestRowContainers:
    def test_accuracy_row_fields(self):
        row = AccuracyRow(
            model="m", agx_error=1.0, nx_error=2.0, unoptimized_error=3.0
        )
        assert row.model == "m"
        assert row.unoptimized_error == 3.0
