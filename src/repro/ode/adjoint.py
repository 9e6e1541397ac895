"""Adjoint-method gradients for Neural ODEs (Equations 7–9 of the paper).

Rather than back-propagating through every unrolled solver step (which stores
the whole trajectory), the adjoint method integrates the augmented system

.. math::

    \\frac{d}{dt}\\begin{bmatrix} z \\\\ a \\\\ g_\\theta \\end{bmatrix}
    = \\begin{bmatrix} f(z, t, \\theta) \\\\
        -a^\\top \\partial f / \\partial z \\\\
        -a^\\top \\partial f / \\partial \\theta \\end{bmatrix}

backwards in time from :math:`t_1` to :math:`t_0`, starting from the loss
gradient :math:`a(t_1) = \\partial L / \\partial z(t_1)`, exactly as the
paper's Equation 9 describes.  Memory use is O(1) in the number of solver
steps, which is the property the paper highlights.

:func:`odeint_adjoint` plugs this into the in-repo autograd: the forward pass
runs the plain (graph-free) solver, and the recorded backward closure runs the
augmented backward integration when the output gradient arrives.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.tensor import Tensor, no_grad
from .solvers import FixedGridSolver, get_solver

__all__ = ["vjp", "adjoint_backward", "odeint_adjoint"]

# A dynamics function that maps (Tensor state, time) -> Tensor derivative and
# whose trainable parameters are given explicitly.
TensorDynamics = Callable[[Tensor, float], Tensor]


def vjp(
    func: TensorDynamics,
    z: np.ndarray,
    t: float,
    adjoint: np.ndarray,
    params: Sequence[Tensor],
) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray]]:
    """Vector–Jacobian products of the dynamics.

    Returns ``(f(z, t), a^T ∂f/∂z, [a^T ∂f/∂θ_i ...])`` evaluated with the
    in-repo autograd.  ``params`` gradients are *not* accumulated into the
    parameter tensors; fresh arrays are returned instead so the adjoint
    integration can manage its own accumulator.
    """

    z_t = Tensor(np.asarray(z, dtype=np.float64), requires_grad=True)
    # Stash and clear existing gradients so this local backward pass does not
    # pollute the training accumulators.
    saved_grads = [p.grad for p in params]
    for p in params:
        p.grad = None

    out = func(z_t, t)
    out.backward(adjoint)

    f_value = out.data.copy()
    grad_z = z_t.grad.copy() if z_t.grad is not None else np.zeros_like(z_t.data)
    grad_params = [
        (p.grad.copy() if p.grad is not None else np.zeros_like(p.data)) for p in params
    ]

    for p, saved in zip(params, saved_grads):
        p.grad = saved
    return f_value, grad_z, grad_params


def adjoint_backward(
    func: TensorDynamics,
    z1: np.ndarray,
    grad_z1: np.ndarray,
    t0: float,
    t1: float,
    num_steps: int,
    params: Sequence[Tensor],
    solver: Optional[FixedGridSolver] = None,
) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray]]:
    """Run the augmented backward integration of Equation 9.

    Parameters
    ----------
    func:
        Dynamics ``f(z, t)`` (parameters captured in ``params``).
    z1:
        State at the end of the forward integration, ``z(t1)``.
    grad_z1:
        Loss gradient with respect to ``z(t1)`` (the adjoint initial value).
    t0, t1, num_steps:
        The forward integration interval and number of solver steps; the
        backward pass uses the same grid in reverse.
    params:
        Parameter tensors of the dynamics.
    solver:
        Fixed-grid solver used for the backward integration (defaults to the
        Euler solver, matching the paper's prediction configuration).

    Returns
    -------
    (z0, grad_z0, grad_params):
        The reconstructed initial state, the loss gradient with respect to
        the initial state, and the loss gradient for every parameter.
    """

    solver = solver or get_solver("euler")
    z1 = np.asarray(z1, dtype=np.float64)
    grad_z1 = np.asarray(grad_z1, dtype=np.float64)
    param_shapes = [p.data.shape for p in params]
    param_sizes = [p.data.size for p in params]
    total_param = int(sum(param_sizes))

    state_size = z1.size
    aug0 = np.concatenate(
        [z1.reshape(-1), grad_z1.reshape(-1), np.zeros(total_param)]
    )

    def augmented(aug: np.ndarray, t: float) -> np.ndarray:
        z = aug[:state_size].reshape(z1.shape)
        a = aug[state_size : 2 * state_size].reshape(z1.shape)
        with no_grad():
            pass  # graph construction handled inside vjp per-call
        f_val, grad_z, grad_params = vjp(func, z, t, a, params)
        flat_grads = (
            np.concatenate([g.reshape(-1) for g in grad_params])
            if grad_params
            else np.zeros(0)
        )
        return np.concatenate([f_val.reshape(-1), -grad_z.reshape(-1), -flat_grads])

    aug_final = solver.integrate(augmented, aug0, t1, t0, num_steps)

    z0 = aug_final[:state_size].reshape(z1.shape)
    grad_z0 = aug_final[state_size : 2 * state_size].reshape(z1.shape)
    flat_param_grad = aug_final[2 * state_size :]
    grad_params: List[np.ndarray] = []
    offset = 0
    for shape, size in zip(param_shapes, param_sizes):
        grad_params.append(flat_param_grad[offset : offset + size].reshape(shape))
        offset += size
    return z0, grad_z0, grad_params


def odeint_adjoint(
    func: TensorDynamics,
    z0: Tensor,
    t0: float,
    t1: float,
    num_steps: int,
    params: Sequence[Tensor],
    method: str = "euler",
) -> Tensor:
    """Integrate ``dz/dt = f(z, t)`` with adjoint-method gradients.

    The forward pass runs without building an autograd graph (constant
    memory); the backward pass integrates the augmented adjoint system with
    the same solver.
    Gradients are accumulated into ``z0`` (if it requires grad) and into every
    tensor in ``params``.
    """

    solver = get_solver(method)
    z0 = z0 if isinstance(z0, Tensor) else Tensor(z0)

    def numpy_dynamics(z: np.ndarray, t: float) -> np.ndarray:
        with no_grad():
            out = func(Tensor(z), t)
        return out.data

    with no_grad():
        z1_data = solver.integrate(numpy_dynamics, z0.data.copy(), t0, t1, num_steps)

    parents: List[Tensor] = [z0] + list(params)

    def backward(grad: np.ndarray) -> None:
        _, grad_z0, grad_params = adjoint_backward(
            func,
            z1_data,
            grad,
            t0,
            t1,
            num_steps,
            params,
            solver=solver,
        )
        z0._accumulate(grad_z0)
        for p, g in zip(params, grad_params):
            p._accumulate(g)

    return Tensor._make(np.asarray(z1_data), parents, backward)
