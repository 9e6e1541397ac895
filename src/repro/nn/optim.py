"""Optimisers and learning-rate schedules.

The paper trains every architecture with SGD, L2 regularisation of 1e-4, 200
epochs, and a learning rate that starts at 0.01 and is divided by 10 at
epochs 100 and 150 (Section 4.3).  :class:`SGD` plus :class:`MultiStepLR`
reproduce that recipe exactly.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from .layers import Parameter

__all__ = ["Optimizer", "SGD", "Adam", "LRScheduler", "MultiStepLR"]


class Optimizer:
    """Base optimiser: owns a parameter list and a learning rate."""

    def __init__(self, params: Iterable[Parameter], lr: float) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with momentum and decoupled L2 weight decay.

    Matches the paper's training configuration (``weight_decay=1e-4``).
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.9,
        weight_decay: float = 1e-4,
    ) -> None:
        super().__init__(params, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: List[Optional[np.ndarray]] = [None] * len(self.params)

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                if self._velocity[i] is None:
                    self._velocity[i] = np.zeros_like(p.data)
                v = self._velocity[i]
                v *= self.momentum
                v += grad
                grad = v
            p.data -= self.lr * grad


class Adam(Optimizer):
    """Adam optimiser (used by the spiral Neural-ODE example, not the paper)
    with betas ``(0.9, 0.999)``, ``eps = 1e-8`` and no weight decay."""

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = 0.9, 0.999
        self.eps = 1e-8
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1t = 1.0 - self.beta1 ** self._t
        b2t = 1.0 - self.beta2 ** self._t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            grad = p.grad
            self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * grad
            self._v[i] = self.beta2 * self._v[i] + (1.0 - self.beta2) * grad * grad
            m_hat = self._m[i] / b1t
            v_hat = self._v[i] / b2t
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class LRScheduler:
    """Base learning-rate scheduler; call :meth:`step` once per epoch."""

    def __init__(self, optimizer: Optimizer) -> None:
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.epoch = 0

    def get_lr(self, epoch: int) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def step(self) -> float:
        self.epoch += 1
        lr = self.get_lr(self.epoch)
        self.optimizer.lr = lr
        return lr


class MultiStepLR(LRScheduler):
    """Divide the learning rate by ``gamma`` at each milestone epoch.

    The paper uses milestones ``(100, 150)`` with ``gamma=0.1``.
    """

    def __init__(
        self,
        optimizer: Optimizer,
        milestones: Sequence[int] = (100, 150),
        gamma: float = 0.1,
    ) -> None:
        super().__init__(optimizer)
        self.milestones = sorted(milestones)
        self.gamma = gamma

    def get_lr(self, epoch: int) -> float:
        passed = sum(1 for m in self.milestones if epoch >= m)
        return self.base_lr * (self.gamma ** passed)
