"""SGD training loop for the ResNet / ODENet / rODENet architectures.

The :class:`Trainer` reproduces the paper's training procedure (Section 4.3):
SGD with L2 regularisation 1e-4, 200 epochs, learning rate 0.01 divided by 10
at epochs 100 and 150.  On this CPU-only reproduction the loop is exercised
with the synthetic CIFAR substitute and shortened schedules; the point is
that every architecture trains through exactly the same code path the paper
describes (including backpropagation through the Euler-unrolled ODEBlocks or
the adjoint method).
"""

from __future__ import annotations

from typing import Optional

from ..data.loader import DataLoader
from ..data.synthetic import SyntheticDataset
from ..nn import CrossEntropyLoss, Module, accuracy
from ..nn.tensor import Tensor, no_grad
from .metrics import EpochMetrics, RunningAverage, TrainingHistory
from .schedule import PaperTrainingSchedule, make_paper_optimizer

__all__ = ["Trainer", "evaluate"]


def evaluate(model: Module, dataset: SyntheticDataset, batch_size: int = 64) -> tuple:
    """Evaluate a model: returns ``(loss, accuracy)`` over the dataset."""

    model.eval()
    criterion = CrossEntropyLoss()
    loss_avg, acc_avg = RunningAverage(), RunningAverage()
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=False)
    with no_grad():
        for images, labels in loader:
            logits = model(Tensor(images))
            loss = criterion(logits, labels)
            loss_avg.update(loss.item(), len(labels))
            acc_avg.update(accuracy(logits, labels), len(labels))
    return loss_avg.average, acc_avg.average


class Trainer:
    """Train a model with the paper's SGD recipe.

    Parameters
    ----------
    model:
        Any :class:`repro.nn.Module` classifier.
    train_set / test_set:
        In-memory datasets (test_set optional).
    schedule:
        Training hyper-parameters; defaults to the paper's 200-epoch recipe —
        pass an explicit short schedule for functional runs.
    """

    def __init__(
        self,
        model: Module,
        train_set: SyntheticDataset,
        test_set: Optional[SyntheticDataset] = None,
        schedule: Optional[PaperTrainingSchedule] = None,
        seed: int = 0,
    ) -> None:
        self.model = model
        self.train_set = train_set
        self.test_set = test_set
        self.schedule = schedule or PaperTrainingSchedule()
        self.seed = seed
        self.criterion = CrossEntropyLoss()
        self.optimizer, self.lr_scheduler = make_paper_optimizer(
            model.parameters(), self.schedule
        )
        self.history = TrainingHistory()

    def train_epoch(self, epoch: int) -> EpochMetrics:
        """Run one epoch of SGD and return its metrics."""

        model = self.model
        model.train()
        loader = DataLoader(
            self.train_set,
            batch_size=self.schedule.batch_size,
            shuffle=True,
            seed=self.seed + epoch,
        )
        loss_avg, acc_avg = RunningAverage(), RunningAverage()
        for images, labels in loader:
            logits = model(Tensor(images))
            loss = self.criterion(logits, labels)
            self.optimizer.zero_grad()
            loss.backward()
            self.optimizer.step()
            loss_avg.update(loss.item(), len(labels))
            acc_avg.update(accuracy(logits, labels), len(labels))

        test_loss = test_acc = None
        if self.test_set is not None:
            test_loss, test_acc = evaluate(model, self.test_set, self.schedule.batch_size)

        lr = self.optimizer.lr
        self.lr_scheduler.step()
        metrics = EpochMetrics(
            epoch=epoch,
            train_loss=loss_avg.average,
            train_accuracy=acc_avg.average,
            test_loss=test_loss,
            test_accuracy=test_acc,
            learning_rate=lr,
        )
        self.history.append(metrics)
        return metrics

    def fit(self) -> TrainingHistory:
        """Train for the schedule's epoch count."""

        for epoch in range(1, self.schedule.epochs + 1):
            self.train_epoch(epoch)
        return self.history
