"""Tests for the synthetic CIFAR-100 substitute."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import make_synthetic_cifar, train_test_split


class TestGenerator:
    def test_shapes_and_dtypes(self):
        ds = make_synthetic_cifar(num_samples=50, num_classes=10, image_size=16, seed=0)
        assert ds.images.shape == (50, 3, 16, 16)
        assert ds.labels.shape == (50,)
        assert ds.labels.dtype == np.int64
        assert ds.num_classes == 10
        assert len(ds) == 50

    def test_deterministic_for_same_seed(self):
        a = make_synthetic_cifar(num_samples=20, num_classes=4, image_size=8, seed=5)
        b = make_synthetic_cifar(num_samples=20, num_classes=4, image_size=8, seed=5)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = make_synthetic_cifar(num_samples=20, num_classes=4, image_size=8, seed=1)
        b = make_synthetic_cifar(num_samples=20, num_classes=4, image_size=8, seed=2)
        assert not np.allclose(a.images, b.images)

    def test_all_classes_present(self):
        ds = make_synthetic_cifar(num_samples=100, num_classes=10, image_size=8, seed=0)
        assert set(np.unique(ds.labels)) == set(range(10))
        counts = np.bincount(ds.labels, minlength=10)
        assert counts.sum() == 100
        assert counts.min() >= 100 // 10

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            make_synthetic_cifar(num_samples=3, num_classes=10)

    def test_getitem_and_subset(self):
        ds = make_synthetic_cifar(num_samples=30, num_classes=3, image_size=8, seed=0)
        sub = ds.subset([0, 1, 2])
        assert len(sub) == 3

    def test_classes_are_separable(self):
        """Nearest-prototype classification on clean data beats chance by far —
        i.e. the synthetic task is actually learnable."""

        ds = make_synthetic_cifar(num_samples=200, num_classes=5, image_size=16, difficulty=0.3, seed=0)
        # Compute per-class mean images and classify by nearest mean.
        means = np.stack([ds.images[ds.labels == c].mean(axis=0) for c in range(5)])
        flat = ds.images.reshape(len(ds), -1)
        distances = ((flat[:, None, :] - means.reshape(5, -1)[None]) ** 2).sum(axis=2)
        predictions = distances.argmin(axis=1)
        accuracy = (predictions == ds.labels).mean()
        assert accuracy > 0.8

    def test_higher_difficulty_is_noisier(self):
        easy = make_synthetic_cifar(num_samples=50, num_classes=5, image_size=8, difficulty=0.1, seed=0)
        hard = make_synthetic_cifar(num_samples=50, num_classes=5, image_size=8, difficulty=2.0, seed=0)
        assert hard.images.std() > easy.images.std()

    @given(st.integers(2, 8), st.integers(8, 32))
    @settings(max_examples=10, deadline=None)
    def test_arbitrary_configurations(self, num_classes, num_samples):
        if num_samples < num_classes:
            return
        ds = make_synthetic_cifar(num_samples=num_samples, num_classes=num_classes, image_size=8, seed=0)
        assert len(ds) == num_samples
        assert ds.labels.max() < num_classes


class TestTrainTestSplit:
    def test_split_sizes(self):
        ds = make_synthetic_cifar(num_samples=100, num_classes=5, image_size=8, seed=0)
        train, test = train_test_split(ds, test_fraction=0.2, seed=1)
        assert len(train) == 80 and len(test) == 20

    def test_split_disjoint_and_complete(self):
        ds = make_synthetic_cifar(num_samples=40, num_classes=4, image_size=8, seed=0)
        # Tag each image with a unique value to detect overlaps.
        ds.images[:, 0, 0, 0] = np.arange(40)
        train, test = train_test_split(ds, test_fraction=0.25, seed=2)
        train_ids = set(train.images[:, 0, 0, 0].astype(int))
        test_ids = set(test.images[:, 0, 0, 0].astype(int))
        assert train_ids.isdisjoint(test_ids)
        assert len(train_ids | test_ids) == 40

    def test_invalid_fraction(self):
        ds = make_synthetic_cifar(num_samples=10, num_classes=2, image_size=8, seed=0)
        with pytest.raises(ValueError):
            train_test_split(ds, test_fraction=0.0)
        with pytest.raises(ValueError):
            train_test_split(ds, test_fraction=1.0)
