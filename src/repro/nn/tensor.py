"""Reverse-mode automatic differentiation on NumPy arrays.

This module provides the :class:`Tensor` class used throughout the
reproduction.  It is intentionally small but complete enough to train the
CIFAR-style convolutional networks used by the paper (ResNet-N, ODENet-N and
the rODENet variants): it supports broadcasting-aware element-wise arithmetic,
matrix multiplication, reductions, reshaping/transposition, indexing and the
usual activation non-linearities.  Convolution, batch normalisation and
pooling are built on top of these primitives in :mod:`repro.nn.functional`.

Design notes
------------
* Gradients are accumulated into ``Tensor.grad`` (a plain ``numpy.ndarray``)
  by a topological-order backward sweep, mirroring the classic
  define-by-run autograd structure.
* Only float arrays participate in differentiation; integer tensors may be
  used as indices but never require gradients.
* The implementation follows the HPC guidance for NumPy code: all heavy
  operations are expressed as vectorised array expressions (no Python loops
  over elements), and in-place accumulation (``+=``) is used when summing
  gradients to avoid temporary copies.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Tensor", "no_grad", "as_tensor"]

ArrayLike = Union["Tensor", np.ndarray, float, int, Sequence]

# ---------------------------------------------------------------------------
# Global gradient-mode switch (mirrors torch.no_grad)
# ---------------------------------------------------------------------------

_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables graph construction.

    Inside a ``with no_grad():`` block, all operations produce tensors with
    ``requires_grad=False`` and no backward closures are recorded.  Used by
    the evaluation loop and by the fixed-point hardware model (which never
    back-propagates).
    """

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev


# ---------------------------------------------------------------------------
# Broadcasting helpers
# ---------------------------------------------------------------------------


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``.

    NumPy broadcasting expands operands; the corresponding gradient must be
    summed over the broadcast axes.  This helper handles both prepended axes
    and axes of size one.
    """

    if grad.shape == shape:
        return grad
    # Sum over extra leading dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over broadcast (size-1) dimensions.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def as_tensor(value: ArrayLike) -> "Tensor":
    """Coerce ``value`` into a float64 :class:`Tensor` (no copy when already one)."""

    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


# ---------------------------------------------------------------------------
# Tensor
# ---------------------------------------------------------------------------


class Tensor:
    """A NumPy-backed array node in a dynamically built autograd graph."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # -- basic properties ---------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # -- graph construction helpers -----------------------------------------

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        parents = tuple(parents)
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Accumulate ``grad`` into ``self.grad`` (in place when possible)."""

        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    # -- backward -----------------------------------------------------------

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Back-propagate from this tensor.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to ones (and must be provided for non-scalar outputs in
            the general case; for convenience a tensor of ones is used).
        """

        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)
            grad = np.broadcast_to(grad, self.data.shape).astype(np.float64)

        # Topological sort (iterative DFS to avoid recursion limits on deep
        # ODENet graphs where a single block is unrolled many times).
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(grad)

        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(-grad)

        return Tensor._make(data, (self, other), backward)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * other.data)
            other._accumulate(grad * self.data)

        return Tensor._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                self._accumulate(grad * b)
                other._accumulate(grad * a)
            elif a.ndim == 2 and b.ndim == 2:
                self._accumulate(grad @ b.T)
                other._accumulate(a.T @ grad)
            elif a.ndim == 1 and b.ndim == 2:
                self._accumulate(grad @ b.T)
                other._accumulate(np.outer(a, grad))
            elif a.ndim == 2 and b.ndim == 1:
                self._accumulate(np.outer(grad, b))
                other._accumulate(a.T @ grad)
            else:
                # Batched matmul: rely on einsum for generality.
                ga = np.matmul(grad, np.swapaxes(b, -1, -2))
                gb = np.matmul(np.swapaxes(a, -1, -2), grad)
                self._accumulate(ga)
                other._accumulate(gb)

        return Tensor._make(data, (self, other), backward)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor._make(data, (self,), backward)

    def mean(self, axis=None) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis) * (1.0 / count)

    # -- shape manipulation ----------------------------------------------------

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(data, (self,), backward)

    def pad(self, pad_width) -> "Tensor":
        """Zero padding with gradient support (NCHW friendly)."""

        data = np.pad(self.data, pad_width)
        slices = tuple(
            slice(before, before + dim)
            for (before, _after), dim in zip(pad_width, self.data.shape)
        )

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad[slices])

        return Tensor._make(data, (self,), backward)

    # -- elementwise non-linearities -------------------------------------------

    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(data, (self,), backward)

    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * data)

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - data ** 2))

        return Tensor._make(data, (self,), backward)

    # -- joining ---------------------------------------------------------------------

    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [as_tensor(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                t._accumulate(grad[tuple(index)])

        return Tensor._make(data, tensors, backward)
