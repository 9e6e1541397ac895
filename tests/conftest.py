"""Shared fixtures for the test-suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import make_synthetic_cifar, train_test_split


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for each test."""

    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small 4-class synthetic dataset (shared across the session)."""

    return make_synthetic_cifar(
        num_samples=64, num_classes=4, image_size=16, difficulty=0.3, seed=7
    )


@pytest.fixture(scope="session")
def tiny_split(tiny_dataset):
    """Train/test split of the tiny dataset."""

    return train_test_split(tiny_dataset, test_fraction=0.25, seed=3)


def numeric_gradient(fn, array: np.ndarray, indices, eps: float = 1e-6):
    """Central-difference numeric gradient of ``fn()`` w.r.t. array[indices]."""

    grads = []
    for idx in indices:
        original = array[idx]
        array[idx] = original + eps
        f_plus = fn()
        array[idx] = original - eps
        f_minus = fn()
        array[idx] = original
        grads.append((f_plus - f_minus) / (2.0 * eps))
    return np.asarray(grads)


@pytest.fixture
def gradcheck():
    """Expose the numeric-gradient helper as a fixture."""

    return numeric_gradient


def direct_conv(x: np.ndarray, w: np.ndarray, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Direct NCHW convolution: a sum over the KH x KW shifted input slices.

    No im2col and so no column order: kernel tap ``(i, j)`` multiplies the
    strided slice of the zero-padded input it sees.  int64 operands
    accumulate in int64, wrapping modulo 2**64 like a 64-bit accumulator.
    """

    n, _, h, width = x.shape
    c_out, _, kh, kw = w.shape
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (width + 2 * padding - kw) // stride + 1
    pad = (padding, padding)
    xp = np.pad(x, ((0, 0), (0, 0), pad, pad))
    acc = np.zeros((n, c_out, out_h, out_w), dtype=np.result_type(x, w))
    for i in range(kh):
        for j in range(kw):
            window = xp[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride]
            acc += np.einsum("nchw,oc->nohw", window, w[:, :, i, j])
    return acc


@pytest.fixture
def conv_oracle():
    """Expose the direct (im2col-free) convolution as a fixture."""

    return direct_conv
