"""Tests for the optimisers and learning-rate schedulers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import SGD, Adam, MultiStepLR, Tensor
from repro.nn.layers import Parameter


def _quadratic_problem(start=5.0):
    """Return a parameter initialised at ``start`` whose optimum is 0."""

    return Parameter(np.array([start]))


def _quadratic_step(param):
    loss = (param * param).sum()
    loss.backward()
    return loss.item()


class TestSGD:
    def test_plain_gradient_descent_step(self):
        p = _quadratic_problem(2.0)
        opt = SGD([p], lr=0.1, momentum=0.0, weight_decay=0.0)
        _quadratic_step(p)
        opt.step()
        # x - lr * 2x = 2 - 0.1*4 = 1.6
        assert p.data[0] == pytest.approx(1.6)

    def test_weight_decay_added(self):
        p = _quadratic_problem(1.0)
        opt = SGD([p], lr=0.1, momentum=0.0, weight_decay=1.0)
        _quadratic_step(p)
        opt.step()
        # grad = 2x + wd*x = 3 -> 1 - 0.3
        assert p.data[0] == pytest.approx(0.7)

    def test_momentum_accumulates(self):
        p = _quadratic_problem(1.0)
        opt = SGD([p], lr=0.1, momentum=0.9, weight_decay=0.0)
        for _ in range(2):
            opt.zero_grad()
            _quadratic_step(p)
            opt.step()
        # After two steps with momentum the parameter moved further than two
        # plain steps would have.
        plain = 1.0
        for _ in range(2):
            plain -= 0.1 * 2 * plain
        assert p.data[0] < plain

    def test_converges_on_quadratic(self):
        p = _quadratic_problem(3.0)
        opt = SGD([p], lr=0.1, momentum=0.9, weight_decay=0.0)
        for _ in range(200):
            opt.zero_grad()
            _quadratic_step(p)
            opt.step()
        assert abs(p.data[0]) < 1e-3

    def test_skips_parameters_without_grad(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1)
        opt.step()  # no grad yet: should be a no-op, not an error
        assert p.data[0] == 1.0

    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)


class TestAdam:
    def test_converges_on_quadratic(self):
        p = _quadratic_problem(3.0)
        opt = Adam([p], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            _quadratic_step(p)
            opt.step()
        assert abs(p.data[0]) < 1e-2

    def test_first_step_size_close_to_lr(self):
        p = _quadratic_problem(1.0)
        opt = Adam([p], lr=0.01)
        _quadratic_step(p)
        opt.step()
        assert p.data[0] == pytest.approx(1.0 - 0.01, rel=1e-3)


class TestSchedulers:
    def test_multistep_matches_paper_recipe(self):
        p = _quadratic_problem()
        opt = SGD([p], lr=0.01)
        sched = MultiStepLR(opt, milestones=(100, 150), gamma=0.1)
        lrs = {}
        for epoch in range(1, 201):
            lrs[epoch] = opt.lr
            sched.step()
        assert lrs[50] == pytest.approx(0.01)
        assert lrs[100] == pytest.approx(0.01)  # lr drops after the step at 100
        assert lrs[101] == pytest.approx(0.001)
        assert lrs[151] == pytest.approx(0.0001)
        assert lrs[200] == pytest.approx(0.0001)
