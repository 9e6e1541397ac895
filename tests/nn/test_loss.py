"""Tests for loss functions and accuracy metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import CrossEntropyLoss, MSELoss, Tensor, accuracy


class TestCrossEntropyLoss:
    def test_matches_manual_computation(self, rng):
        logits = rng.normal(size=(4, 6))
        targets = np.array([0, 5, 2, 2])
        loss = CrossEntropyLoss()(Tensor(logits), targets)
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -logp[np.arange(4), targets].mean()
        assert loss.item() == pytest.approx(expected, rel=1e-10)

    def test_loss_decreases_as_prediction_improves(self):
        targets = np.array([1])
        weak = CrossEntropyLoss()(Tensor(np.array([[0.0, 0.5]])), targets)
        strong = CrossEntropyLoss()(Tensor(np.array([[0.0, 5.0]])), targets)
        assert strong.item() < weak.item()


class TestMSELoss:
    def test_zero_for_identical(self):
        x = Tensor(np.arange(10.0))
        assert MSELoss()(x, np.arange(10.0)).item() == pytest.approx(0.0)

    def test_value(self):
        pred = Tensor(np.array([1.0, 2.0]))
        target = np.array([0.0, 0.0])
        assert MSELoss()(pred, target).item() == pytest.approx(2.5)

    def test_gradient(self):
        pred = Tensor(np.array([3.0]), requires_grad=True)
        MSELoss()(pred, np.array([1.0])).backward()
        assert pred.grad[0] == pytest.approx(2 * (3.0 - 1.0) / 1)


class TestAccuracy:
    def test_perfect_and_zero(self):
        logits = np.eye(4) * 10
        assert accuracy(logits, np.arange(4)) == 1.0
        assert accuracy(logits, (np.arange(4) + 1) % 4) == 0.0

    def test_accepts_tensor_input(self):
        logits = Tensor(np.eye(3))
        assert accuracy(logits, np.arange(3)) == 1.0

    def test_partial(self):
        logits = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=float)
        assert accuracy(logits, np.array([0, 1, 1, 0])) == 0.5
