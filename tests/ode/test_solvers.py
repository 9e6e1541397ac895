"""Tests for the fixed-grid ODE solvers (Euler / midpoint / Heun / RK4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ode import (
    EULER,
    HEUN,
    MIDPOINT,
    RK4,
    available_methods,
    get_solver,
    solver_order,
)


def exponential_decay(z, t):
    return -z


def linear_system(A):
    return lambda z, t: A @ z


class TestSolverRegistry:
    def test_available_methods(self):
        methods = available_methods()
        for name in ("euler", "midpoint", "heun", "rk4", "rk2"):
            assert name in methods

    def test_get_solver_case_insensitive(self):
        assert get_solver("Euler").tableau is EULER
        assert get_solver("RK4").tableau is RK4

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="unknown ODE solver"):
            get_solver("dormand")

    def test_orders(self):
        assert solver_order("euler") == 1
        assert solver_order("midpoint") == 2
        assert solver_order("heun") == 2
        assert solver_order("rk4") == 4

    def test_stages_per_step(self):
        assert get_solver("euler").stages_per_step == 1
        assert get_solver("midpoint").stages_per_step == 2
        assert get_solver("rk4").stages_per_step == 4

    def test_tableau_consistency(self):
        # Each tableau's b weights must sum to one (consistency condition).
        for tab in (EULER, MIDPOINT, HEUN, RK4):
            assert sum(tab.b) == pytest.approx(1.0)
            assert len(tab.a) == tab.stages
            assert len(tab.c) == tab.stages


class TestAccuracy:
    def test_euler_single_step_matches_formula(self):
        # z1 = z0 + h f(z0): the paper's Equation 5.
        solver = get_solver("euler")
        z1 = solver.integrate(exponential_decay, np.array([2.0]), 0.0, 0.5, 1)
        assert z1[0] == pytest.approx(2.0 + 0.5 * (-2.0))

    @pytest.mark.parametrize("method,expected_tol", [("euler", 2e-3), ("midpoint", 1e-5), ("heun", 1e-5), ("rk4", 1e-10)])
    def test_exponential_decay_accuracy(self, method, expected_tol):
        z1 = get_solver(method).integrate(exponential_decay, np.array([1.0]), 0.0, 1.0, 100)
        assert abs(z1[0] - np.exp(-1.0)) < expected_tol

    @pytest.mark.parametrize("method", ["euler", "midpoint", "heun", "rk4"])
    def test_convergence_order(self, method):
        """Halving the step size reduces the error by ~2^order."""

        order = solver_order(method)
        solver = get_solver(method)
        exact = np.exp(-1.0)
        errors = []
        for steps in (20, 40):
            z1 = solver.integrate(exponential_decay, np.array([1.0]), 0.0, 1.0, steps)
            errors.append(abs(z1[0] - exact))
        ratio = errors[0] / errors[1]
        assert ratio == pytest.approx(2 ** order, rel=0.25)

    def test_linear_system_matches_matrix_exponential(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])  # rotation
        z0 = np.array([1.0, 0.0])
        z1 = get_solver("rk4").integrate(linear_system(A), z0, 0.0, np.pi / 2, 200)
        np.testing.assert_allclose(z1, [0.0, -1.0], atol=1e-6)

    def test_backward_integration(self):
        """Integrating forward then backward returns to the start (RK4)."""

        solver = get_solver("rk4")
        z0 = np.array([1.0, -0.5])
        A = np.array([[-0.3, 0.2], [0.1, -0.4]])
        z1 = solver.integrate(linear_system(A), z0, 0.0, 2.0, 100)
        back = solver.integrate(linear_system(A), z1, 2.0, 0.0, 100)
        np.testing.assert_allclose(back, z0, atol=1e-6)

    def test_invalid_num_steps(self):
        with pytest.raises(ValueError):
            get_solver("euler").integrate(exponential_decay, np.array([1.0]), 0.0, 1.0, 0)


class TestResNetCorrespondence:
    def test_euler_m_steps_equals_m_residual_blocks(self):
        """Section 2.3: M Euler steps with h=1 == M ResNet residual additions."""

        rng = np.random.default_rng(0)
        W = rng.normal(scale=0.1, size=(4, 4))

        def f(z, t):
            return np.tanh(z @ W.T)

        z0 = rng.normal(size=(1, 4))
        m = 5
        # ResNet-style explicit unrolling.
        z_resnet = z0.copy()
        for _ in range(m):
            z_resnet = z_resnet + f(z_resnet, 0.0)
        # ODESolve with Euler, step size 1 over [0, M].
        z_ode = get_solver("euler").integrate(f, z0, 0.0, float(m), m)
        np.testing.assert_allclose(z_ode, z_resnet, rtol=1e-12)
