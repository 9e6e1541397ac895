"""Mini-batch iteration over in-memory datasets."""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from .synthetic import SyntheticDataset

__all__ = ["DataLoader"]


class DataLoader:
    """Iterate over a dataset in shuffled mini-batches.

    Parameters
    ----------
    dataset:
        The dataset to iterate (images + integer labels).
    batch_size:
        Mini-batch size; the final partial batch is kept.
    shuffle:
        Reshuffle the sample order at the start of every epoch.
    seed:
        Seed of the shuffling RNG (reproducible epochs).
    """

    def __init__(
        self,
        dataset: SyntheticDataset,
        batch_size: int = 32,
        shuffle: bool = True,
        seed: int = 0,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self._rng = np.random.default_rng(seed)

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        n = len(self.dataset)
        order = self._rng.permutation(n) if self.shuffle else np.arange(n)
        for start in range(0, n, self.batch_size):
            idx = order[start : start + self.batch_size]
            yield self.dataset.images[idx], self.dataset.labels[idx]
