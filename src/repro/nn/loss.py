"""Loss functions.

Cross-entropy (softmax + negative log likelihood) is the loss used for all
CIFAR-100 experiments in the paper.  MSE is provided for the spiral
Neural-ODE regression example and for the adjoint-method unit tests.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .tensor import Tensor, as_tensor

__all__ = ["CrossEntropyLoss", "MSELoss", "accuracy"]


class CrossEntropyLoss:
    """Mean cross-entropy over a batch of logits and integer class targets."""

    def __call__(self, logits: Tensor, targets: np.ndarray) -> Tensor:
        return F.cross_entropy(logits, targets)


class MSELoss:
    """Mean squared error."""

    def __call__(self, prediction: Tensor, target) -> Tensor:
        prediction = as_tensor(prediction)
        target = as_tensor(target)
        diff = prediction - target
        return (diff * diff).mean()


def accuracy(logits, targets: np.ndarray) -> float:
    """Top-1 accuracy of ``logits`` (Tensor or ndarray) against integer targets."""

    data = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    predictions = data.argmax(axis=1)
    targets = np.asarray(targets)
    return float((predictions == targets).mean())
