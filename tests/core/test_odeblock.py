"""Tests for PlainBlock, ODEBlockFunction and ODEBlock."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.odeblock import ODEBlock, ODEBlockFunction, PlainBlock
from repro.nn import CrossEntropyLoss, Tensor
from repro.nn import functional as F
from repro.ode import get_solver, odeint_adjoint


class TestPlainBlock:
    def test_identity_shape(self, rng):
        block = PlainBlock(8, 8, rng=rng)
        x = Tensor(rng.normal(size=(2, 8, 6, 6)))
        assert block(x).shape == (2, 8, 6, 6)

    def test_strided_channel_doubling(self, rng):
        block = PlainBlock(8, 16, stride=2, rng=rng)
        x = Tensor(rng.normal(size=(2, 8, 8, 8)))
        out = block(x)
        assert out.shape == (2, 16, 4, 4)

    def test_output_nonnegative_after_relu(self, rng):
        block = PlainBlock(4, 4, rng=rng)
        out = block(Tensor(rng.normal(size=(1, 4, 4, 4))))
        assert np.all(out.data >= 0)

    def test_shortcut_dominates_with_zero_weights(self, rng):
        """With zero conv weights the block reduces to relu(shortcut)."""

        block = PlainBlock(4, 4, rng=rng)
        block.conv1.weight.data[...] = 0.0
        block.conv2.weight.data[...] = 0.0
        block.eval()
        x = Tensor(rng.normal(size=(1, 4, 3, 3)))
        out = block(x)
        np.testing.assert_allclose(out.data, np.maximum(x.data, 0), atol=1e-10)

    def test_parameter_count_matches_table2_formula(self, rng):
        block = PlainBlock(64, 64, rng=rng)
        assert block.num_parameters() == 2 * 64 * 64 * 9 + 4 * 64

    def test_strided_parameter_count_has_no_projection(self, rng):
        block = PlainBlock(32, 64, stride=2, rng=rng)
        assert block.num_parameters() == 64 * 32 * 9 + 64 * 64 * 9 + 4 * 64

    def test_gradients_flow(self, rng):
        block = PlainBlock(4, 4, rng=rng)
        x = Tensor(rng.normal(size=(2, 4, 4, 4)), requires_grad=True)
        block(x).sum().backward()
        assert x.grad is not None
        assert block.conv1.weight.grad is not None


class TestODEBlockFunction:
    def test_time_concat_parameter_count(self, rng):
        func = ODEBlockFunction(64, rng=rng)
        assert func.num_parameters() == 2 * 64 * 65 * 9 + 4 * 64

    def test_output_shape_preserved(self, rng):
        func = ODEBlockFunction(8, rng=rng)
        z = Tensor(rng.normal(size=(2, 8, 5, 5)))
        assert func(z, 0.3).shape == (2, 8, 5, 5)

    def test_time_value_changes_output(self, rng):
        func = ODEBlockFunction(4, rng=rng)
        func.eval()
        z = Tensor(rng.normal(size=(1, 4, 4, 4)))
        out0 = func(z, 0.0).data
        out1 = func(z, 1.0).data
        assert np.max(np.abs(out0 - out1)) > 1e-8


def _integrate(block: ODEBlock, x: Tensor, t1: float, use_adjoint: bool) -> Tensor:
    """``block``'s dynamics integrated over [0, t1] in ``num_steps`` steps of
    its solver, by unrolled backprop or by :func:`odeint_adjoint`, then ReLU."""

    if use_adjoint:
        params = block.dynamics.parameters()
        out = odeint_adjoint(block.dynamics, x, 0.0, t1, block.num_steps, params, block.method)
    else:
        out = get_solver(block.method).integrate(block.dynamics, x, 0.0, t1, block.num_steps)
    return out.relu()


class TestODEBlock:
    def test_invalid_steps(self, rng):
        with pytest.raises(ValueError):
            ODEBlock(4, num_steps=0, rng=rng)

    def test_forward_shape(self, rng):
        block = ODEBlock(8, num_steps=3, rng=rng)
        out = block(Tensor(rng.normal(size=(2, 8, 4, 4))))
        assert out.shape == (2, 8, 4, 4)

    def test_euler_equals_manual_unroll(self, rng):
        """The ODEBlock with Euler/h=1 equals M manual residual executions."""

        block = ODEBlock(4, num_steps=3, method="euler", rng=rng)
        block.eval()
        x = Tensor(rng.normal(scale=0.3, size=(1, 4, 4, 4)))
        out = block(x).data

        z = x
        for i in range(3):
            z = z + block.dynamics(z, float(i))
        expected = z.relu().data
        np.testing.assert_allclose(out, expected, rtol=1e-10)

    def test_parameter_count_independent_of_steps(self, rng):
        p3 = ODEBlock(8, num_steps=3, rng=rng).num_parameters()
        p9 = ODEBlock(8, num_steps=9, rng=rng).num_parameters()
        assert p3 == p9

    def test_gradient_through_unrolled_solver(self, rng):
        block = ODEBlock(4, num_steps=2, rng=rng)
        x = Tensor(rng.normal(scale=0.3, size=(2, 4, 4, 4)))
        pooled = F.global_avg_pool2d(block(x))
        loss = (pooled * pooled).sum()
        loss.backward()
        assert block.dynamics.conv1.weight.grad is not None
        assert np.any(block.dynamics.conv1.weight.grad != 0)

    def test_adjoint_training_path(self, rng):
        """With a fine solver grid, adjoint gradients track unrolled backprop.

        At the paper's coarse Euler grid (h = 1) the adjoint gradients are
        known to drift from the unrolled ones (the ANODE observation cited in
        Section 4.3); with a fine RK4 grid over [0, 1] both must agree.
        """

        block = ODEBlock(4, num_steps=8, method="rk4", rng=rng)
        x_data = rng.normal(scale=0.3, size=(1, 4, 3, 3))

        def run(use_adjoint):
            block.train()
            for param in block.parameters():
                param.zero_grad()
            out = _integrate(block, Tensor(x_data), 1.0, use_adjoint)
            out.sum().backward()
            return block.dynamics.conv1.weight.grad.copy()

        grad_unrolled = run(False)
        grad_adjoint = run(True)
        cosine = np.sum(grad_unrolled * grad_adjoint) / (
            np.linalg.norm(grad_unrolled) * np.linalg.norm(grad_adjoint)
        )
        assert cosine > 0.99

    def test_adjoint_coarse_grid_gradients_drift(self, rng):
        """At the paper's h = 1 Euler grid the adjoint gradient deviates —
        the accuracy-loss issue the paper's future work mentions."""

        block = ODEBlock(4, num_steps=2, method="euler", rng=rng)
        x_data = rng.normal(scale=0.3, size=(1, 4, 3, 3))

        def run(use_adjoint):
            block.train()
            for param in block.parameters():
                param.zero_grad()
            _integrate(block, Tensor(x_data), float(block.num_steps), use_adjoint).sum().backward()
            return block.dynamics.conv1.weight.grad.copy()

        grad_unrolled = run(False)
        grad_adjoint = run(True)
        relative_gap = np.linalg.norm(grad_unrolled - grad_adjoint) / np.linalg.norm(grad_unrolled)
        assert relative_gap > 0.01

    def test_rk4_differs_from_euler(self, rng):
        euler = ODEBlock(4, num_steps=2, method="euler", rng=rng)
        rk4 = ODEBlock(4, num_steps=2, method="rk4", rng=rng)
        rk4.load_state_dict(euler.state_dict())
        euler.eval(), rk4.eval()
        x = Tensor(rng.normal(scale=0.3, size=(1, 4, 4, 4)))
        assert np.max(np.abs(euler(x).data - rk4(x).data)) > 1e-9
