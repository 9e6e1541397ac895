"""Tests for the paper's training schedule."""

from __future__ import annotations

import pytest

from repro.nn.layers import Parameter
from repro.train import PaperTrainingSchedule, make_paper_optimizer

import numpy as np


class TestPaperSchedule:
    def test_defaults_match_section_43(self):
        s = PaperTrainingSchedule()
        assert s.epochs == 200
        assert s.base_lr == 0.01
        assert s.weight_decay == 1e-4
        assert s.milestones == (100, 150)
        assert s.gamma == 0.1



class TestMakePaperOptimizer:
    def test_optimizer_configuration(self):
        params = [Parameter(np.zeros(3))]
        optimizer, scheduler = make_paper_optimizer(params)
        assert optimizer.lr == 0.01
        assert optimizer.weight_decay == 1e-4
        assert scheduler.milestones == [100, 150]

    def test_lr_trajectory_matches_paper(self):
        params = [Parameter(np.zeros(1))]
        optimizer, scheduler = make_paper_optimizer(params)
        trajectory = {}
        for epoch in range(1, 201):
            trajectory[epoch] = optimizer.lr
            scheduler.step()
        assert trajectory[99] == pytest.approx(0.01)
        assert trajectory[101] == pytest.approx(0.001)
        assert trajectory[151] == pytest.approx(0.0001)

    def test_custom_schedule_respected(self):
        params = [Parameter(np.zeros(1))]
        schedule = PaperTrainingSchedule(base_lr=0.5, milestones=(2,), weight_decay=0.0)
        optimizer, scheduler = make_paper_optimizer(params, schedule)
        assert optimizer.lr == 0.5
        scheduler.step(), scheduler.step()
        assert optimizer.lr == pytest.approx(0.05)
