"""Tests for the synthetic datasets (benign, adversarial, traffic)."""

import numpy as np
import pytest

from repro.data.corruptions import (
    CORRUPTIONS,
    EXTRA_CORRUPTIONS,
    SEVERITIES,
    corrupt,
    corrupt_batch,
)
from repro.data.synthetic import SyntheticImageNet
from repro.data.traffic import VEHICLE_CLASSES


class TestSyntheticImageNet:
    def test_batch_shapes_and_labels(self, dataset):
        batch = dataset.batch(3, seed=0)
        assert batch.images.shape == (30, 3, 16, 16)
        assert batch.labels.shape == (30,)
        assert set(batch.labels) == set(range(10))
        assert len(batch) == 30

    def test_deterministic_given_seeds(self, dataset):
        a = dataset.batch(2, seed=5)
        b = dataset.batch(2, seed=5)
        np.testing.assert_array_equal(a.images, b.images)
        c = dataset.batch(2, seed=6)
        assert not np.array_equal(a.images, c.images)

    def test_same_dataset_seed_same_prototypes(self):
        d1 = SyntheticImageNet(num_classes=5, image_size=8, seed=9)
        d2 = SyntheticImageNet(num_classes=5, image_size=8, seed=9)
        np.testing.assert_array_equal(d1.prototype(3), d2.prototype(3))

    def test_class_subset(self, dataset):
        batch = dataset.batch(2, classes=[1, 4], seed=0)
        assert set(batch.labels) == {1, 4}

    def test_classes_are_linearly_separable(self, dataset):
        """Nearest-prototype classification on raw pixels must beat
        chance by a wide margin — the property the model zoo's
        pretraining relies on."""
        batch = dataset.batch(10, seed=3)
        protos = np.stack(
            [dataset.prototype(c).ravel() for c in range(10)]
        )
        flat = batch.images.reshape(len(batch), -1)
        sims = flat @ protos.T
        acc = (sims.argmax(1) == batch.labels).mean()
        assert acc > 0.4  # chance is 0.1

    def test_rejects_degenerate_class_count(self):
        with pytest.raises(ValueError, match="two classes"):
            SyntheticImageNet(num_classes=1)


class TestCorruptions:
    def test_fifteen_families(self):
        assert len(CORRUPTIONS) == 15

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_each_corruption_preserves_shape(self, name, dataset):
        image = dataset.batch(1, classes=[0], seed=0).images[0]
        for severity in (1, 5):
            out = corrupt(image, name, severity)
            assert out.shape == image.shape
            assert out.dtype == np.float32
            assert np.isfinite(out).all()
            assert not np.array_equal(out, image)

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_severity_increases_distortion(self, name, dataset):
        image = dataset.batch(1, classes=[0], seed=0).images[0]
        mild = np.abs(corrupt(image, name, 1) - image).mean()
        harsh = np.abs(corrupt(image, name, 5) - image).mean()
        assert harsh > mild

    def test_jpeg_extra_corruption(self, dataset):
        image = dataset.batch(1, classes=[0], seed=0).images[0]
        out = corrupt(image, "jpeg_compression", 3)
        assert out.shape == image.shape
        assert "jpeg_compression" in EXTRA_CORRUPTIONS

    def test_invalid_severity(self, dataset):
        image = dataset.batch(1, classes=[0], seed=0).images[0]
        with pytest.raises(ValueError, match="severity"):
            corrupt(image, "gaussian_noise", 9)

    def test_unknown_corruption(self, dataset):
        image = dataset.batch(1, classes=[0], seed=0).images[0]
        with pytest.raises(ValueError, match="unknown corruption"):
            corrupt(image, "vortex", 1)

    def test_deterministic_noise(self, dataset):
        image = dataset.batch(1, classes=[0], seed=0).images[0]
        a = corrupt(image, "gaussian_noise", 3)
        b = corrupt(image, "gaussian_noise", 3)
        np.testing.assert_array_equal(a, b)

    def test_batch_helper(self, dataset):
        images = dataset.batch(2, classes=[0, 1], seed=0).images
        out = corrupt_batch(images, "contrast", 2)
        assert out.shape == images.shape

    def test_severity_levels_constant(self):
        assert SEVERITIES == (1, 2, 3, 4, 5)


class TestTrafficScenes:
    def test_scene_structure(self, traffic):
        scene = traffic.scene(0)
        assert scene.image.shape == (3, 64, 64)
        assert 1 <= len(scene.boxes) <= 4
        for gt in scene.boxes:
            assert 1 <= gt.class_id < len(VEHICLE_CLASSES)
            x1, y1, x2, y2 = gt.box
            assert 0 <= x1 < x2 <= 1
            assert 0 <= y1 < y2 <= 1

    def test_deterministic_by_index(self, traffic):
        a = traffic.scene(7)
        b = traffic.scene(7)
        np.testing.assert_array_equal(a.image, b.image)
        assert a.boxes == b.boxes

    def test_different_indices_differ(self, traffic):
        assert not np.array_equal(traffic.scene(1).image,
                                  traffic.scene(2).image)

    def test_batch(self, traffic):
        scenes = traffic.batch(5, start=3)
        assert len(scenes) == 5
        np.testing.assert_array_equal(
            scenes[0].image, traffic.scene(3).image
        )

    def test_vehicle_patches(self, traffic):
        vehicles, backgrounds = traffic.vehicle_patches(6, patch=12)
        assert vehicles.shape == (6, 3, 12, 12)
        assert backgrounds.shape == (6, 3, 12, 12)
        # Vehicles are brighter/structured vs road background.
        assert np.abs(vehicles).mean() > np.abs(backgrounds).mean()

    def test_vehicle_classes_have_background_zero(self):
        assert VEHICLE_CLASSES[0] == "background"


class TestCorruptionRngDigest:
    """The per-image noise stream must hash *all* channels: images
    sharing only a first channel must not share noise."""

    def test_images_differing_beyond_channel0_get_distinct_noise(self):
        base = np.zeros((3, 16, 16), dtype=np.float32)
        other = base.copy()
        other[1] += 0.5  # identical channel 0, different channel 1
        a = corrupt(base, "gaussian_noise", 3) - base
        b = corrupt(other, "gaussian_noise", 3) - other
        assert not np.array_equal(a, b)

    def test_noise_is_still_deterministic_per_image(self):
        rng = np.random.default_rng(0)
        img = rng.normal(size=(3, 16, 16)).astype(np.float32)
        np.testing.assert_array_equal(
            corrupt(img, "impulse_noise", 2), corrupt(img, "impulse_noise", 2)
        )
