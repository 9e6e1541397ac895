"""Building blocks: plain ResNet blocks, down-sampling blocks and ODEBlocks.

The paper's building block (Figure 1) is: 3x3 convolution, batch
normalisation, ReLU, 3x3 convolution, batch normalisation, plus the shortcut
connection that adds the block input to its output.  In ODENet (Figure 2) a
block is reinterpreted as the dynamics ``f(z, t, θ)`` of an ODE and executed
``M`` times by an ODE solver (Euler by default: ``z_{i+1} = z_i + h·f(z_i)``).

Three module classes implement this:

* :class:`PlainBlock` — one residual building block (used by ResNet-N, by the
  ``single``-realisation layers of the rODENet variants, and with a strided /
  channel-doubling configuration by layer2_1 and layer3_1, whose shortcut is
  the parameter-free subsample + zero-pad of the original CIFAR ResNet).
* :class:`ODEBlock` — one block's worth of parameters used as ODE dynamics
  with time concatenated as an extra input channel to both convolutions, and
  executed for ``M`` solver steps.
* :class:`ODEBlockFunction` — the raw dynamics (without the solver loop),
  exposed separately so the adjoint method and the FPGA hardware model can
  call it directly.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import nn
from ..nn.tensor import Tensor
from ..ode import get_solver
from ..ode.solvers import FixedGridSolver

__all__ = ["PlainBlock", "ODEBlockFunction", "ODEBlock"]


def _pad_shortcut(x: Tensor, out_channels: int, stride: int) -> Tensor:
    """Parameter-free shortcut: spatial subsampling plus channel zero-padding.

    This is "option A" of the original ResNet paper, consistent with Table 2
    counting no projection parameters for layer2_1 / layer3_1.
    """

    if stride > 1:
        x = x[:, :, ::stride, ::stride]
    in_channels = x.shape[1]
    if in_channels < out_channels:
        extra = out_channels - in_channels
        before = extra // 2
        after = extra - before
        x = x.pad(((0, 0), (before, after), (0, 0), (0, 0)))
    return x


class PlainBlock(nn.Module):
    """A residual building block executed once (standard ResNet block)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride
        self.conv1 = nn.Conv2d(in_channels, out_channels, stride=stride, rng=rng)
        self.bn1 = nn.BatchNorm2d(out_channels)
        self.conv2 = nn.Conv2d(out_channels, out_channels, rng=rng)
        self.bn2 = nn.BatchNorm2d(out_channels)

    def residual_function(self, x: Tensor) -> Tensor:
        """The f(z, θ) part of the block (without the shortcut)."""

        h = self.bn1(self.conv1(x)).relu()
        return self.bn2(self.conv2(h))

    def forward(self, x: Tensor) -> Tensor:
        shortcut = _pad_shortcut(x, self.out_channels, self.stride)
        return (self.residual_function(x) + shortcut).relu()


class ODEBlockFunction(nn.Module):
    """The ODE dynamics ``f(z, t, θ)``: conv–BN–ReLU–conv–BN with time concat.

    The scalar integration time ``t`` is broadcast to an extra input channel
    of both convolutions (the standard Neural-ODE "ConcatConv2d"), which is
    what gives the ODENet layer blocks their slightly larger parameter counts
    in Table 2.
    """

    def __init__(self, channels: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.channels = channels
        self.conv1 = nn.Conv2d(channels + 1, channels, rng=rng)
        self.bn1 = nn.BatchNorm2d(channels)
        self.conv2 = nn.Conv2d(channels + 1, channels, rng=rng)
        self.bn2 = nn.BatchNorm2d(channels)

    @staticmethod
    def _concat_time(x: Tensor, t: float) -> Tensor:
        n, _, h, w = x.shape
        t_channel = Tensor(np.full((n, 1, h, w), float(t)))
        return Tensor.concatenate([x, t_channel], axis=1)

    def forward(self, z: Tensor, t: float = 0.0) -> Tensor:
        h = self.bn1(self.conv1(self._concat_time(z, t))).relu()
        return self.bn2(self.conv2(self._concat_time(h, t)))


class ODEBlock(nn.Module):
    """A single block's parameters executed ``num_steps`` times by an ODE solver.

    Parameters
    ----------
    channels:
        Channel count of the feature map (16 / 32 / 64 in the paper).
    num_steps:
        Number of solver steps M — the "# of executions per block" column of
        Table 4.  With the Euler method this is exactly M repeated executions
        of the block.
    method:
        ODE solver name (``euler`` in the paper's prediction configuration;
        ``rk4`` etc. for the solver ablation).

    The block integrates over [0, M]: the paper's correspondence uses a step
    size of 1 per block execution.  Training backpropagates through the
    unrolled solver.
    """

    def __init__(
        self,
        channels: int,
        num_steps: int,
        method: str = "euler",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if num_steps < 1:
            raise ValueError("num_steps must be >= 1")
        self.channels = channels
        self.num_steps = num_steps
        self.method = method
        self.dynamics = ODEBlockFunction(channels, rng=rng)

    @property
    def solver(self) -> FixedGridSolver:
        return get_solver(self.method)

    def forward(self, x: Tensor) -> Tensor:
        out = self.solver.integrate(self.dynamics, x, 0.0, float(self.num_steps), self.num_steps)
        return out.relu()


__doc_note__ = """
Note: like the paper's Figure 2, the ODEBlock replaces a whole stack of
ResNet blocks; the trailing ReLU keeps the activation pattern consistent with
the ResNet building block it replaces.
"""
