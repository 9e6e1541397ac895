"""Tests for the mini-batch loader."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import DataLoader, make_synthetic_cifar


@pytest.fixture(scope="module")
def dataset():
    return make_synthetic_cifar(num_samples=50, num_classes=5, image_size=8, seed=0)


class TestDataLoader:
    def test_batch_shapes(self, dataset):
        loader = DataLoader(dataset, batch_size=16, shuffle=False)
        images, labels = next(iter(loader))
        assert images.shape == (16, 3, 8, 8)
        assert labels.shape == (16,)

    def test_len_keeps_the_partial_batch(self, dataset):
        sizes = [len(labels) for _, labels in DataLoader(dataset, batch_size=16)]
        assert sizes == [16, 16, 16, 2]

    def test_iterates_whole_dataset(self, dataset):
        loader = DataLoader(dataset, batch_size=16, shuffle=True)
        total = sum(len(labels) for _, labels in loader)
        assert total == 50

    def test_shuffle_changes_order_between_epochs(self, dataset):
        loader = DataLoader(dataset, batch_size=50, shuffle=True, seed=0)
        first = next(iter(loader))[1].copy()
        second = next(iter(loader))[1].copy()
        assert not np.array_equal(first, second)

    def test_no_shuffle_preserves_order(self, dataset):
        loader = DataLoader(dataset, batch_size=50, shuffle=False)
        _, labels = next(iter(loader))
        np.testing.assert_array_equal(labels, dataset.labels)

    def test_invalid_batch_size(self, dataset):
        with pytest.raises(ValueError):
            DataLoader(dataset, batch_size=0)
