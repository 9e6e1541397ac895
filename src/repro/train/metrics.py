"""Training/evaluation metric bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["EpochMetrics", "TrainingHistory", "RunningAverage"]


class RunningAverage:
    """Numerically simple streaming mean (weighted by batch size)."""

    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0

    def update(self, value: float, weight: int = 1) -> None:
        self.total += float(value) * weight
        self.count += weight

    @property
    def average(self) -> float:
        return self.total / self.count if self.count else 0.0


@dataclass(frozen=True)
class EpochMetrics:
    """Metrics of one training epoch."""

    epoch: int
    train_loss: float
    train_accuracy: float
    test_loss: Optional[float] = None
    test_accuracy: Optional[float] = None
    learning_rate: Optional[float] = None


@dataclass
class TrainingHistory:
    """Sequence of epoch metrics for one training run."""

    epochs: List[EpochMetrics] = field(default_factory=list, init=False)

    def append(self, metrics: EpochMetrics) -> None:
        self.epochs.append(metrics)

    @property
    def final(self) -> EpochMetrics:
        if not self.epochs:
            raise ValueError("history is empty")
        return self.epochs[-1]
