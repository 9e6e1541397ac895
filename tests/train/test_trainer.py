"""Functional tests for the training loop (small synthetic data)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.core import build_network
from repro.train import PaperTrainingSchedule, Trainer, evaluate


def _linear_probe(num_classes: int, image_shape):
    """A tiny model that trains in a few seconds on the tiny dataset."""

    channels, size, _ = image_shape
    rng = np.random.default_rng(0)
    return nn.Sequential(
        nn.Conv2d(channels, 4, rng=rng),
        nn.BatchNorm2d(4),
        nn.GlobalAvgPool2d(),
        nn.Linear(4, num_classes, rng=rng),
    )


@pytest.fixture(scope="module")
def short_schedule():
    return PaperTrainingSchedule(epochs=3, base_lr=0.05, milestones=(2,), batch_size=16)


class TestTrainer:
    def test_loss_decreases_on_tiny_dataset(self, tiny_split, short_schedule):
        train_set, test_set = tiny_split
        model = _linear_probe(train_set.num_classes, train_set.images.shape[1:])
        trainer = Trainer(model, train_set, test_set, schedule=short_schedule, seed=0)
        history = trainer.fit()
        assert len(history.epochs) == 3
        assert history.final.train_loss < history.epochs[0].train_loss

    def test_history_records_lr_and_test_metrics(self, tiny_split, short_schedule):
        train_set, test_set = tiny_split
        model = _linear_probe(train_set.num_classes, train_set.images.shape[1:])
        trainer = Trainer(model, train_set, test_set, schedule=short_schedule)
        history = trainer.fit()
        first = history.epochs[0]
        assert first.learning_rate == pytest.approx(0.05)
        assert first.test_accuracy is not None
        # LR must have dropped after the milestone at epoch 2.
        assert history.epochs[-1].learning_rate < first.learning_rate

    def test_evaluate_returns_loss_and_accuracy(self, tiny_split):
        train_set, test_set = tiny_split
        model = _linear_probe(train_set.num_classes, train_set.images.shape[1:])
        loss, acc = evaluate(model, test_set)
        assert loss > 0
        assert 0.0 <= acc <= 1.0

    def test_variant_network_trains_through_trainer(self, tiny_split):
        """The real rODENet-3 architecture (reduced width) goes through the
        same training path and improves on the tiny dataset."""

        train_set, _ = tiny_split
        model = build_network(
            "rODENet-3", 20, num_classes=train_set.num_classes, base_width=4
        )
        schedule = PaperTrainingSchedule(epochs=2, base_lr=0.05, milestones=(10,), batch_size=16)
        trainer = Trainer(model, train_set, schedule=schedule, seed=1)
        history = trainer.fit()
        assert history.final.train_loss < history.epochs[0].train_loss
