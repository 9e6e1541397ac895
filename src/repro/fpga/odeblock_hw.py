"""The PL-part ODEBlock datapath: the bit-accurate forward pass, nothing else.

:class:`HardwareODEBlock` is the simulated counterpart of the Verilog module
the paper implements on the PYNQ-Z2's programmable logic.  It holds the
quantised weights of the two convolutions and two batch-normalisation steps
and runs the bit-accurate fixed-point forward pass (conv → BN → ReLU → conv
→ BN) on cache-sized image groups of :data:`GROUP_ELEMENTS` elements.

It computes and does not price: the cost of an invocation (conv_x16
cycles at the PL clock, the AXI round trip) comes from the analytic models
(:mod:`repro.fpga.cycles`, :mod:`repro.fpga.axi`) through
:class:`~repro.core.execution_model.ExecutionTimeModel`, and the resource,
timing and BRAM reports of a configuration from
:mod:`repro.fpga.resources`, :mod:`repro.fpga.timing` and
:mod:`repro.fpga.bram`.

It is used by the hardware/software co-execution runtime
(:mod:`repro.hwsw.runtime`) to replace the software building block of an
offloaded layer.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Optional

import numpy as np

from ..fixedpoint import FxArray, QFormat, Q20
from .geometry import KERNEL, BlockGeometry, block_geometry
from .ops import hw_batch_norm, hw_conv2d, hw_relu, hw_residual_add

__all__ = ["GROUP_ELEMENTS", "BlockWeights", "HardwareODEBlock", "image_groups"]

#: Feature-map elements per image group of the forward pass: each int64
#: stage tensor of a group (4 layer1, 8 layer2_2 or 16 layer3_2 images)
#: stays cache-sized, and the group bounds the im2col matrix.  In two
#: one-core sweeps from 2**13 to 2**18 elements and the whole batch, 2**16
#: gave the lowest total time over the three offloadable blocks.
GROUP_ELEMENTS = 1 << 16


def image_groups(n: int, image_elements: int) -> List[slice]:
    """Consecutive slices of an ``n``-image batch, each about
    :data:`GROUP_ELEMENTS` elements of ``image_elements``-element images
    (at least one image; the last group may be partial)."""

    step = max(1, GROUP_ELEMENTS // image_elements)
    return [slice(start, start + step) for start in range(0, n, step)]


def _conv_shape(geometry: BlockGeometry, time_concat: bool) -> tuple:
    """Shape of both kernels: ``(C, C_in + 1, 3, 3)`` with the time channel."""

    return (geometry.out_channels, geometry.in_channels + (1 if time_concat else 0), KERNEL, KERNEL)


@dataclass
class BlockWeights:
    """Floating-point weights of one building block (before quantisation)."""

    conv1_weight: np.ndarray
    bn1_gamma: np.ndarray
    bn1_beta: np.ndarray
    conv2_weight: np.ndarray
    bn2_gamma: np.ndarray
    bn2_beta: np.ndarray
    bn1_mean: Optional[np.ndarray] = None
    bn1_var: Optional[np.ndarray] = None
    bn2_mean: Optional[np.ndarray] = None
    bn2_var: Optional[np.ndarray] = None

    @classmethod
    def random(
        cls,
        geometry: BlockGeometry,
        rng: np.random.Generator,
        scale: float = 0.1,
        time_concat: bool = False,
    ) -> "BlockWeights":
        """Random weights with a sensible magnitude for Q20, both kernels
        with the extra time-concat input channel when ``time_concat``."""

        c = geometry.out_channels
        shape = _conv_shape(geometry, time_concat)
        return cls(
            conv1_weight=rng.normal(0.0, scale, size=shape),
            bn1_gamma=np.ones(c),
            bn1_beta=np.zeros(c),
            conv2_weight=rng.normal(0.0, scale, size=shape),
            bn2_gamma=np.ones(c),
            bn2_beta=np.zeros(c),
        )

    def check_shapes(self, geometry: BlockGeometry, time_concat: bool) -> None:
        """Raise :class:`ValueError` naming the first tensor that does not fit
        ``geometry``: both kernels are ``(C, C_in + time_concat, 3, 3)`` and
        every BN vector, running statistics included when present, ``(C,)``."""

        conv = _conv_shape(geometry, time_concat)
        for f in fields(self):
            value = getattr(self, f.name)
            expected = conv if f.name.startswith("conv") else (geometry.out_channels,)
            if value is not None and np.shape(value) != expected:
                raise ValueError(
                    f"{f.name} shape {np.shape(value)} does not match {expected} "
                    f"(block {geometry.name}, time_concat={time_concat})"
                )


class HardwareODEBlock:
    """Simulated PL datapath of one ODEBlock (the Verilog module of
    Section 3.1), bit-accurate in ``qformat``."""

    def __init__(
        self,
        block: str | BlockGeometry,
        weights: BlockWeights,
        qformat: QFormat = Q20,
        dynamic_bn_stats: bool = True,
        time_concat: bool = False,
    ) -> None:
        self.geometry = block if isinstance(block, BlockGeometry) else block_geometry(block)
        self.qformat = qformat.check_datapath()
        self.dynamic_bn_stats = dynamic_bn_stats
        #: When True the block implements ODE dynamics with the integration
        #: time concatenated as one extra (constant) input channel to both
        #: convolutions, matching the software ODEBlockFunction.
        self.time_concat = time_concat
        weights.check_shapes(self.geometry, time_concat)
        self._load_weights(weights)

    # -- weights -------------------------------------------------------------------

    def _load_weights(self, weights: BlockWeights) -> None:
        q = self.qformat
        self._conv1_w = FxArray.from_float(weights.conv1_weight, q)
        self._conv2_w = FxArray.from_float(weights.conv2_weight, q)
        self._bn1_gamma = FxArray.from_float(weights.bn1_gamma, q)
        self._bn1_beta = FxArray.from_float(weights.bn1_beta, q)
        self._bn2_gamma = FxArray.from_float(weights.bn2_gamma, q)
        self._bn2_beta = FxArray.from_float(weights.bn2_beta, q)
        self._bn1_mean = FxArray.from_float(weights.bn1_mean, q) if weights.bn1_mean is not None else None
        self._bn1_var = FxArray.from_float(weights.bn1_var, q) if weights.bn1_var is not None else None
        self._bn2_mean = FxArray.from_float(weights.bn2_mean, q) if weights.bn2_mean is not None else None
        self._bn2_var = FxArray.from_float(weights.bn2_var, q) if weights.bn2_var is not None else None

    # -- execution -------------------------------------------------------------------

    def _with_time_channel(self, x: FxArray, t: float) -> FxArray:
        """Append the constant integration-time channel (time-concat mode).

        The constant plane is identical for every image of the
        ``(N, C, H, W)`` batch, so batching stays bit-exact.
        """

        if not self.time_concat:
            return x
        n, _, h, w = x.shape
        t_fx = self.qformat.to_fixed(float(t))
        t_plane = np.full((n, 1, h, w), int(t_fx), dtype=np.int64)
        return FxArray(np.concatenate([x.raw, t_plane], axis=1), self.qformat)

    def _forward_fixed(self, x: FxArray, t: float) -> FxArray:
        """The five-step pipeline, each :func:`image_groups` group through
        every stage while its feature maps are in cache.  BN's statistics
        are per image and integer arithmetic is exact: no bit can change."""

        raw = x.raw
        n, _, height, width = raw.shape
        # Channel-last memory, like a whole-batch conv output, so every
        # later pass over the result reduces in the same order.
        out = np.empty((n, height, width, self._conv2_w.shape[0]), dtype=np.int64)
        out = out.transpose(0, 3, 1, 2)
        for group in image_groups(n, raw[0].size):
            h = hw_conv2d(self._with_time_channel(FxArray(raw[group], x.fmt), t), self._conv1_w)
            h = hw_batch_norm(
                h,
                self._bn1_gamma,
                self._bn1_beta,
                running_mean=self._bn1_mean,
                running_var=self._bn1_var,
                dynamic_stats=self.dynamic_bn_stats,
            )
            h = hw_relu(h)
            h = hw_conv2d(self._with_time_channel(h, t), self._conv2_w)
            out[group] = hw_batch_norm(
                h,
                self._bn2_gamma,
                self._bn2_beta,
                running_mean=self._bn2_mean,
                running_var=self._bn2_var,
                dynamic_stats=self.dynamic_bn_stats,
            ).raw
        return FxArray(out, x.fmt)

    def dynamics_batch(self, z: np.ndarray) -> np.ndarray:
        """Evaluate ``f(z, 0, θ)`` (the five-step pipeline) in fixed point
        for an ``(N, C, H, W)`` batch.

        Float feature maps are quantised at the boundary, mirroring the DMA
        transfer of float32 feature maps described by the paper, and flow
        through the datapath in image groups; the result is bit-identical
        to batches of one (the board evaluates images serially, so a batch
        is a throughput construct, not a semantic one).
        """

        z = np.asarray(z, dtype=np.float64)
        if z.ndim != 4:
            raise ValueError("dynamics_batch expects an (N, C, H, W) batch")
        x = FxArray.from_float(z, self.qformat)
        return self._forward_fixed(x, 0.0).to_float()

    def execute_batch(self, z: np.ndarray, step_size: float = 1.0, t: float = 0.0) -> np.ndarray:
        """Run one Euler step ``z + h·f(z, t)`` per image of an ``(N, C, H, W)``
        batch; bit-identical to running each image as its own batch."""

        z = np.asarray(z, dtype=np.float64)
        if z.ndim != 4:
            raise ValueError("execute_batch expects an (N, C, H, W) batch")
        x = FxArray.from_float(z, self.qformat)
        return hw_residual_add(x, self._forward_fixed(x, t), step_size).to_float()

    def run_iterations_batch(self, z: np.ndarray, iterations: int) -> np.ndarray:
        """Euler-iterate a batch: ``z <- z + f(z, i)`` per image (step 1),
        the ODENet's repeated use of one block.  Bit-identical to batches
        of one."""

        state = np.asarray(z, dtype=np.float64)
        for i in range(iterations):
            state = self.execute_batch(state, t=float(i))
        return state
