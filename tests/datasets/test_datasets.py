"""Tests for the synthetic datasets, registry, and the shuffled batch draw."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import (
    ImageDataset,
    PUBLIC_DATASET_PAIRS,
    SyntheticImageConfig,
    SyntheticImageGenerator,
    available_datasets,
    dataset_config,
    dataset_family,
    load_dataset,
    make_prototypes,
    public_dataset_for,
    shuffled_batches,
    train_test_split,
)
from repro.datasets.synthetic import _smooth_field


class TestImageDataset:
    def test_validation(self, rng):
        with pytest.raises(ValueError):
            ImageDataset(images=rng.normal(size=(4, 8, 8)), labels=np.zeros(4, dtype=int), num_classes=2)
        with pytest.raises(ValueError):
            ImageDataset(images=rng.normal(size=(4, 1, 8, 8)), labels=np.zeros(3, dtype=int), num_classes=2)
        with pytest.raises(ValueError):
            ImageDataset(images=rng.normal(size=(4, 1, 8, 8)), labels=np.array([0, 1, 2, 5]), num_classes=3)

    def test_subset_and_counts(self, tiny_gray_dataset):
        subset = tiny_gray_dataset.subset([0, 1, 2])
        assert len(subset) == 3
        assert subset.input_shape == tiny_gray_dataset.input_shape
        counts = tiny_gray_dataset.class_counts()
        assert counts.sum() == len(tiny_gray_dataset)
        assert set(tiny_gray_dataset.classes_present()) <= set(range(4))

    def test_iter_class_indices_partition_samples(self, tiny_gray_dataset):
        total = sum(len(idx) for _, idx in tiny_gray_dataset.iter_class_indices())
        assert total == len(tiny_gray_dataset)

    def test_train_test_split_stratified(self, tiny_gray_dataset, rng):
        train, test = train_test_split(tiny_gray_dataset, 0.25, rng)
        assert len(train) + len(test) == len(tiny_gray_dataset)
        # Every class present in the original set appears in the test split.
        assert set(test.classes_present()) == set(tiny_gray_dataset.classes_present())
        with pytest.raises(ValueError):
            train_test_split(tiny_gray_dataset, 1.5, rng)

    def test_describe(self, tiny_gray_dataset):
        assert "tiny-gray" in tiny_gray_dataset.describe()


class TestSyntheticGenerator:
    def test_determinism(self):
        config = SyntheticImageConfig(name="d", num_classes=3, channels=1, height=8, width=8,
                                      family_seed=1)
        a = SyntheticImageGenerator(config).sample(30, seed=5)
        b = SyntheticImageGenerator(config).sample(30, seed=5)
        np.testing.assert_allclose(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        config = SyntheticImageConfig(name="d", num_classes=3, channels=1, height=8, width=8,
                                      family_seed=1)
        generator = SyntheticImageGenerator(config)
        a, b = generator.sample(30, seed=5), generator.sample(30, seed=6)
        assert not np.allclose(a.images, b.images)

    def test_class_distribution_control(self):
        config = SyntheticImageConfig(name="d", num_classes=4, channels=1, height=8, width=8,
                                      family_seed=1)
        generator = SyntheticImageGenerator(config)
        dataset = generator.sample(200, seed=0, class_distribution=np.array([1.0, 0, 0, 0]))
        assert set(dataset.labels) == {0}
        with pytest.raises(ValueError):
            generator.sample(10, seed=0, class_distribution=np.array([0.5, 0.5]))

    def test_prototypes_shape_and_normalization(self):
        prototypes = make_prototypes(3, 2, 8, 8, seed=0, modes_per_class=2, background_strength=0.5)
        assert prototypes.shape == (3, 2, 2, 8, 8)
        assert np.abs(prototypes).max() <= 1.0 + 1e-9

    def test_classes_are_separable(self):
        """Nearest-prototype classification on clean-ish samples beats chance by a lot."""
        config = SyntheticImageConfig(name="sep", num_classes=4, channels=1, height=8, width=8,
                                      family_seed=9, noise_level=0.1, max_shift=0,
                                      modes_per_class=1, background_strength=0.2)
        generator = SyntheticImageGenerator(config)
        dataset = generator.sample(200, seed=1)
        prototypes = generator.prototypes[:, 0]
        flattened = dataset.images.reshape(len(dataset), -1)
        references = prototypes.reshape(4, -1)
        predictions = np.argmax(flattened @ references.T, axis=1)
        # Well above the 25% chance level of a 4-class problem.
        assert (predictions == dataset.labels).mean() > 0.5

    @pytest.mark.parametrize("channels,height,width,smoothness", [
        (1, 16, 16, 3), (3, 32, 32, 3), (1, 28, 28, 4), (2, 7, 11, 2)])
    def test_smooth_field_keeps_the_bits_of_the_per_pixel_blur(
            self, channels, height, width, smoothness):
        """The vectorized box blur against the per-pixel loop it replaced."""
        def per_pixel(rng):
            low_h, low_w = max(2, height // smoothness), max(2, width // smoothness)
            coarse = rng.normal(size=(channels, low_h, low_w))
            field = np.repeat(np.repeat(coarse, int(np.ceil(height / low_h)), axis=1),
                              int(np.ceil(width / low_w)), axis=2)[:, :height, :width]
            kernel = np.ones((3, 3)) / 9.0
            blurred = np.empty_like(field)
            padded = np.pad(field, ((0, 0), (1, 1), (1, 1)), mode="edge")
            for c in range(channels):
                for i in range(height):
                    for j in range(width):
                        blurred[c, i, j] = np.sum(padded[c, i:i + 3, j:j + 3] * kernel)
            return blurred

        for seed in range(5):
            field = _smooth_field(np.random.default_rng(seed), channels, height, width,
                                  smoothness=smoothness)
            expected = per_pixel(np.random.default_rng(seed))
            assert field.shape == expected.shape
            assert field.tobytes() == expected.tobytes()

    def test_value_range_is_bounded(self, tiny_rgb_dataset):
        assert np.abs(tiny_rgb_dataset.images).max() <= 1.5


class TestRegistry:
    def test_available_and_families(self):
        names = available_datasets()
        assert {"mnist", "kmnist", "fashion", "cifar10", "cifar100", "svhn"} == set(names)
        assert dataset_family("mnist") == "small"
        assert dataset_family("cifar10") == "cifar"
        with pytest.raises(KeyError):
            dataset_family("imagenet")

    def test_load_dataset_shapes(self):
        train, test = load_dataset("mnist", train_size=60, test_size=20, image_size=8, seed=0)
        assert len(train) == 60 and len(test) == 20
        assert train.input_shape == (1, 8, 8)
        train_c, _ = load_dataset("cifar10", train_size=30, test_size=10, image_size=8, seed=0)
        assert train_c.input_shape == (3, 8, 8)
        assert train_c.num_classes == 10

    def test_cifar100_has_100_classes(self):
        config = dataset_config("cifar100")
        assert config.num_classes == 100

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            load_dataset("imagenet")

    def test_public_dataset_pairings(self):
        assert PUBLIC_DATASET_PAIRS["cifar10"] == ["cifar100", "svhn"]
        public = public_dataset_for("cifar10", size=20, image_size=8)
        assert public.name.startswith("cifar100")
        public_far = public_dataset_for("cifar10", choice="svhn", size=20, image_size=8)
        assert public_far.name.startswith("svhn")
        with pytest.raises(KeyError):
            public_dataset_for("svhn")

    def test_cifar100_closer_to_cifar10_than_svhn(self):
        """The substitution's key property: CIFAR-100 stand-in is distributionally
        closer to CIFAR-10 than the SVHN stand-in (compared via mean per-pixel
        distance between class-averaged images)."""
        cifar10, _ = load_dataset("cifar10", train_size=300, test_size=10, image_size=8, seed=1)
        cifar100 = public_dataset_for("cifar10", "cifar100", size=300, image_size=8, seed=2)
        svhn = public_dataset_for("cifar10", "svhn", size=300, image_size=8, seed=3)

        def mean_image(dataset):
            return dataset.images.mean(axis=0)

        close = np.abs(mean_image(cifar10) - mean_image(cifar100)).mean()
        far = np.abs(mean_image(cifar10) - mean_image(svhn)).mean()
        assert close < far


class TestShuffledBatches:
    def test_batch_sizes_and_count(self):
        batches = list(shuffled_batches(100, 32, 1, np.random.default_rng(0)))
        assert [len(batch) for batch in batches] == [32, 32, 32, 4]

    def test_every_epoch_covers_every_sample_once(self):
        batches = list(shuffled_batches(50, 16, 2, np.random.default_rng(0)))
        first, second = np.concatenate(batches[:4]), np.concatenate(batches[4:])
        np.testing.assert_array_equal(np.sort(first), np.arange(50))
        np.testing.assert_array_equal(np.sort(second), np.arange(50))
        assert not np.array_equal(first, second)

    def test_draw_is_one_permutation_per_epoch(self):
        rng, replay = np.random.default_rng(3), np.random.default_rng(3)
        drawn = np.concatenate(list(shuffled_batches(20, 6, 2, rng)))
        expected = np.concatenate([replay.permutation(np.arange(20)) for _ in range(2)])
        np.testing.assert_array_equal(drawn, expected)
        assert rng.bit_generator.state == replay.bit_generator.state

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            list(shuffled_batches(10, 0, 1, np.random.default_rng(0)))
