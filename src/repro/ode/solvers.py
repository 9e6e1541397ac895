"""Fixed-grid ODE solvers (Euler, midpoint, Heun, RK4).

These implement the ``ODESolve`` function of the paper (Equation 4): the
integration range ``[t0, t1]`` is divided into fixed steps of size ``h`` and a
recurrence formula advances the state.  Euler (Equation 5) is the solver the
paper uses for prediction on the FPGA; second- and fourth-order Runge–Kutta
are implemented for the training-accuracy discussion and the solver ablation.

The steppers are generic: the state may be a plain ``numpy.ndarray`` *or* a
:class:`repro.nn.tensor.Tensor`, because all operations used (addition and
scalar multiplication) are defined for both.  When the state is a Tensor the
whole integration is recorded on the autograd graph, which is how
backpropagation-through-the-solver (the non-adjoint training mode) works.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Tuple, Union

from .._checks import check_count

if TYPE_CHECKING:  # the steppers never call NumPy; ``get_solver`` users need not import it
    import numpy as np

    from ..nn.tensor import Tensor

__all__ = [
    "ButcherTableau",
    "EULER",
    "MIDPOINT",
    "HEUN",
    "RK4",
    "FixedGridSolver",
    "get_solver",
    "available_methods",
    "solver_order",
]

State = Union["np.ndarray", "Tensor"]
DynamicsFn = Callable[[State, float], State]


@dataclass(frozen=True)
class ButcherTableau:
    """Butcher tableau of an explicit Runge–Kutta method."""

    name: str
    order: int
    a: Tuple[Tuple[float, ...], ...]
    b: Tuple[float, ...]
    c: Tuple[float, ...]

    @property
    def stages(self) -> int:
        return len(self.b)


EULER = ButcherTableau(name="euler", order=1, a=((),), b=(1.0,), c=(0.0,))

MIDPOINT = ButcherTableau(
    name="midpoint",
    order=2,
    a=((), (0.5,)),
    b=(0.0, 1.0),
    c=(0.0, 0.5),
)

HEUN = ButcherTableau(
    name="heun",
    order=2,
    a=((), (1.0,)),
    b=(0.5, 0.5),
    c=(0.0, 1.0),
)

RK4 = ButcherTableau(
    name="rk4",
    order=4,
    a=((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)),
    b=(1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0),
    c=(0.0, 0.5, 0.5, 1.0),
)

_TABLEAUS: Dict[str, ButcherTableau] = {
    "euler": EULER,
    "midpoint": MIDPOINT,
    "rk2": MIDPOINT,
    "heun": HEUN,
    "rk4": RK4,
}


def available_methods() -> List[str]:
    """Names accepted by :func:`get_solver` / :func:`repro.ode.odeint`."""

    return sorted(_TABLEAUS)


def solver_order(method: str) -> int:
    """Order of accuracy of the named fixed-grid method."""

    return _TABLEAUS[method.lower()].order


class FixedGridSolver:
    """Explicit Runge–Kutta integrator on a fixed time grid."""

    def __init__(self, tableau: ButcherTableau) -> None:
        self.tableau = tableau

    @property
    def stages_per_step(self) -> int:
        """Number of dynamics-function evaluations per step.

        This drives the execution-time model: the FPGA executes the ODEBlock
        body once per stage per step, so Euler costs one block execution per
        step while RK4 costs four.
        """

        return self.tableau.stages

    def step(self, func: DynamicsFn, z: State, t: float, h: float) -> State:
        """Advance the state by one step of size ``h``."""

        tab = self.tableau
        ks: List[State] = []
        for i in range(tab.stages):
            zi = z
            for j, coeff in enumerate(tab.a[i]):
                if coeff != 0.0:
                    zi = zi + (h * coeff) * ks[j]
            ks.append(func(zi, t + tab.c[i] * h))
        out = z
        for bi, ki in zip(tab.b, ks):
            if bi != 0.0:
                out = out + (h * bi) * ki
        return out

    def integrate(
        self,
        func: DynamicsFn,
        z0: State,
        t0: float,
        t1: float,
        num_steps: int,
    ) -> State:
        """Integrate from ``t0`` to ``t1`` in ``num_steps`` equal steps.

        This is the paper's ``ODESolve(z(t0), t0, t1, f)``.  Negative
        direction (``t1 < t0``) is supported, which the adjoint method uses
        to integrate backwards in time.
        """

        num_steps = check_count("num_steps", num_steps, 1)
        h = (t1 - t0) / num_steps
        z = z0
        t = t0
        for _ in range(num_steps):
            z = self.step(func, z, t, h)
            t += h
        return z


def get_solver(method: str) -> FixedGridSolver:
    """Look up a fixed-grid solver by name (euler / midpoint / rk2 / heun / rk4)."""

    key = method.lower()
    if key not in _TABLEAUS:
        raise ValueError(
            f"unknown ODE solver '{method}'; available: {', '.join(available_methods())}"
        )
    return FixedGridSolver(_TABLEAUS[key])
