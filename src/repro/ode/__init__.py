"""ODE solver substrate: fixed-grid solvers plus the adjoint method.

This package plays the role of ``torchdiffeq`` in the original work: it
provides ``ODESolve`` (Equation 4 of the paper) as the fixed-grid
solvers' ``integrate``, a torchdiffeq-style ``odeint`` front end, and
adjoint-method gradients (Equations 7–9).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".adjoint": ("adjoint_backward", "odeint_adjoint", "vjp"),
        ".odeint": ("odeint",),
        ".solvers": (
            "EULER", "HEUN", "MIDPOINT", "RK4", "ButcherTableau", "FixedGridSolver",
            "available_methods", "get_solver", "solver_order",
        ),
    },
)
