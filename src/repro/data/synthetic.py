"""Synthetic CIFAR-100-like dataset generator.

The paper's accuracy experiments (Section 4.3 / Figure 6) use CIFAR-100.
The real dataset cannot be downloaded in this environment, so this module
provides a deterministic synthetic substitute with the same interface and
tensor shapes: RGB images of a configurable size (32x32 by default) belonging
to a configurable number of classes (100 by default).

Each class is defined by a random smooth "prototype" image (low-frequency
Gaussian field); samples are the prototype plus structured noise and a random
brightness/contrast jitter, so the classification task is learnable but not
trivial.  The generator is fully seeded, so experiments are reproducible, and
a ``difficulty`` knob controls the noise level (useful for quick tests).

The substitution is documented in DESIGN.md: the synthetic data exercises the
identical training/evaluation code path (same architectures, solvers,
optimiser and schedule); absolute accuracy values are not comparable to
CIFAR-100, but relative behaviour between architectures is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["SyntheticDataset", "make_synthetic_cifar", "train_test_split"]


def _smooth_field(rng: np.random.Generator, channels: int, size: int) -> np.ndarray:
    """A low-frequency random field (4x4 coarse grid), used as a class prototype."""

    smoothness = 4
    coarse = rng.normal(0.0, 1.0, size=(channels, smoothness, smoothness))
    # Bilinear-ish upsampling via repetition + box blur to keep it dependency-free.
    reps = int(np.ceil(size / smoothness))
    up = np.repeat(np.repeat(coarse, reps, axis=1), reps, axis=2)[:, :size, :size]
    kernel = 3
    padded = np.pad(up, ((0, 0), (kernel, kernel), (kernel, kernel)), mode="edge")
    out = np.zeros_like(up)
    count = 0
    for dy in range(-kernel, kernel + 1):
        for dx in range(-kernel, kernel + 1):
            out += padded[:, kernel + dy : kernel + dy + size, kernel + dx : kernel + dx + size]
            count += 1
    return out / count


@dataclass
class SyntheticDataset:
    """An in-memory image-classification dataset."""

    images: np.ndarray  # (N, C, H, W) float32-ish in [-1, 1] roughly
    labels: np.ndarray  # (N,) int64
    num_classes: int

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, indices) -> "SyntheticDataset":
        indices = np.asarray(indices)
        return SyntheticDataset(
            images=self.images[indices],
            labels=self.labels[indices],
            num_classes=self.num_classes,
        )


def make_synthetic_cifar(
    num_samples: int = 1000,
    num_classes: int = 100,
    image_size: int = 32,
    difficulty: float = 0.5,
    seed: int = 0,
) -> SyntheticDataset:
    """Generate a synthetic CIFAR-like dataset.

    Parameters
    ----------
    num_samples:
        Total number of images (balanced across classes as evenly as possible).
    num_classes:
        Number of classes (100 to mirror CIFAR-100; tests use 4–10).
    image_size:
        Spatial size of each (3-channel) image.
    difficulty:
        Noise-to-signal ratio in [0, ~2]; higher is harder.
    seed:
        Seed for full reproducibility.
    """

    if num_samples < num_classes:
        raise ValueError("need at least one sample per class")
    rng = np.random.default_rng(seed)
    channels = 3

    prototypes = np.stack(
        [_smooth_field(rng, channels, image_size) for _ in range(num_classes)], axis=0
    )
    # Normalise prototypes to unit RMS so difficulty is meaningful.
    rms = np.sqrt(np.mean(prototypes ** 2, axis=(1, 2, 3), keepdims=True))
    prototypes = prototypes / np.maximum(rms, 1e-8)

    labels = np.arange(num_samples) % num_classes
    rng.shuffle(labels)

    noise = rng.normal(0.0, difficulty, size=(num_samples, channels, image_size, image_size))
    gain = rng.uniform(0.8, 1.2, size=(num_samples, 1, 1, 1))
    bias = rng.uniform(-0.1, 0.1, size=(num_samples, 1, 1, 1))
    images = prototypes[labels] * gain + noise + bias

    return SyntheticDataset(
        images=images.astype(np.float64),
        labels=labels.astype(np.int64),
        num_classes=num_classes,
    )


def train_test_split(
    dataset: SyntheticDataset, test_fraction: float = 0.2, seed: int = 0
) -> Tuple[SyntheticDataset, SyntheticDataset]:
    """Split a dataset into train and test subsets (shuffled, seeded)."""

    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    indices = rng.permutation(len(dataset))
    n_test = max(1, int(round(len(dataset) * test_fraction)))
    test_idx, train_idx = indices[:n_test], indices[n_test:]
    return dataset.subset(train_idx), dataset.subset(test_idx)
