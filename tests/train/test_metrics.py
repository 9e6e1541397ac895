"""Tests for the training metrics bookkeeping."""

from __future__ import annotations

import pytest

from repro.train import EpochMetrics, RunningAverage, TrainingHistory


class TestRunningAverage:
    def test_empty_average_is_zero(self):
        assert RunningAverage().average == 0.0

    def test_weighted_average(self):
        avg = RunningAverage()
        avg.update(1.0, weight=10)
        avg.update(2.0, weight=30)
        assert avg.average == pytest.approx(1.75)

    def test_single_update(self):
        avg = RunningAverage()
        avg.update(3.5)
        assert avg.average == 3.5


class TestTrainingHistory:
    def _history(self):
        h = TrainingHistory()
        for i, (loss, acc) in enumerate([(2.0, 0.2), (1.5, 0.4), (1.0, 0.6)], start=1):
            h.append(EpochMetrics(i, loss, acc, test_accuracy=acc - 0.05))
        return h

    def test_len_iter_final(self):
        h = self._history()
        assert h.final.epoch == 3
        assert [e.epoch for e in h.epochs] == [1, 2, 3]

    def test_empty_history_final_raises(self):
        with pytest.raises(ValueError):
            TrainingHistory().final
