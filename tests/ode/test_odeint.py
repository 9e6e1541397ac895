"""Tests for the public odeint API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Tensor
from repro.ode import odeint


def decay(z, t):
    return -z


class TestOdeint:
    def test_trajectory_shape(self):
        times = [0.0, 0.5, 1.0, 1.5]
        out = odeint(decay, np.array([1.0, 2.0]), times, method="rk4", steps_per_interval=20)
        assert out.shape == (4, 2)
        np.testing.assert_allclose(out[0], [1.0, 2.0])

    def test_values_match_analytic(self):
        times = np.linspace(0, 2, 5)
        out = odeint(decay, np.array([1.0]), times, method="rk4", steps_per_interval=50)
        np.testing.assert_allclose(out[:, 0], np.exp(-times), rtol=1e-6)

    def test_decreasing_times_supported(self):
        times = [1.0, 0.5, 0.0]
        out = odeint(decay, np.array([np.exp(-1.0)]), times, method="rk4", steps_per_interval=50)
        assert out[-1, 0] == pytest.approx(1.0, rel=1e-6)

    def test_non_monotonic_times_rejected(self):
        with pytest.raises(ValueError, match="monotonic"):
            odeint(decay, np.array([1.0]), [0.0, 1.0, 0.5])

    def test_single_time_rejected(self):
        with pytest.raises(ValueError):
            odeint(decay, np.array([1.0]), [0.0])

    def test_tensor_state_rejected(self):
        with pytest.raises(TypeError, match="odeint_adjoint"):
            odeint(decay, Tensor(np.array([1.0])), [0.0, 1.0])

    @pytest.mark.parametrize("method", ["rk12", "rk45", "dopri5", "heun_euler", "adaptive_heun"])
    def test_removed_adaptive_methods_are_unknown_solvers(self, method):
        with pytest.raises(ValueError, match=f"unknown ODE solver '{method}'; available: euler, "):
            odeint(decay, np.array([1.0]), [0.0, 1.0], method=method)
