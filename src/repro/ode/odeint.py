"""Public ``odeint`` API (torchdiffeq-compatible surface).

:func:`odeint` evaluates the solution at a sequence of time points, like
``torchdiffeq.odeint(func, y0, t)``, returning the stacked trajectory.  The
paper's single ``ODESolve(z(t0), t0, t1, f)`` (Equation 4) is
``get_solver(method).integrate``.

Use :func:`repro.ode.adjoint.odeint_adjoint` for constant-memory gradients.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..nn.tensor import Tensor
from .solvers import get_solver

__all__ = ["odeint"]

DynamicsFn = Callable[[np.ndarray, float], np.ndarray]


def odeint(
    func: DynamicsFn,
    y0: np.ndarray,
    t: Sequence[float],
    method: str = "euler",
    steps_per_interval: int = 1,
) -> np.ndarray:
    """Evaluate the ODE solution at every time in ``t``.

    Parameters
    ----------
    func:
        Dynamics ``f(y, t)``.
    y0:
        Initial state (NumPy array).
    t:
        Monotonic sequence of evaluation times; ``t[0]`` is the initial time.
    method:
        A fixed-grid method of :func:`repro.ode.solvers.available_methods`;
        any other name is :func:`~repro.ode.solvers.get_solver`'s
        ``ValueError``.
    steps_per_interval:
        Number of fixed steps between consecutive requested times.

    Returns
    -------
    numpy.ndarray
        Stacked states with shape ``(len(t), *y0.shape)``.
    """

    if isinstance(y0, Tensor):
        raise TypeError("odeint integrates NumPy arrays; use odeint_adjoint for Tensor gradients")
    times = [float(x) for x in t]
    if len(times) < 2:
        raise ValueError("odeint requires at least two time points")
    diffs = np.diff(times)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ValueError("odeint time points must be strictly monotonic")

    solver = get_solver(method)
    state = y0
    outputs = [state]
    for ta, tb in zip(times[:-1], times[1:]):
        state = solver.integrate(func, state, ta, tb, steps_per_interval)
        outputs.append(state)
    return np.stack(outputs, axis=0)
