"""Geometry of the convolutional building blocks implemented on the PL part.

A :class:`BlockGeometry` captures what varies between the blocks the paper
offloads: channel count and feature-map size.  Every such block is the same
building block (Section 3.1): :data:`NUM_CONVS` :data:`KERNEL` x
:data:`KERNEL` convolutions at stride :data:`STRIDE` and
:data:`NUM_BATCH_NORMS` batch norms.  The three blocks the paper implements
on the FPGA are provided as constants:

=========  =========  ================
name       channels   feature map
=========  =========  ================
layer1     16         32 x 32
layer2_2   32         16 x 16
layer3_2   64         8 x 8
=========  =========  ================

(Table 2 lists the *output* size of each layer group; the strided
down-sampling blocks layer2_1 / layer3_1 halve the spatial size, so the
repeated blocks operate at the sizes above.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = [
    "KERNEL",
    "STRIDE",
    "NUM_CONVS",
    "NUM_BATCH_NORMS",
    "BlockGeometry",
    "LAYER1",
    "LAYER2_2",
    "LAYER3_2",
    "OFFLOADABLE_BLOCKS",
    "block_geometry",
]


#: Side of the square convolution kernel.
KERNEL = 3
#: Convolution stride: an offloaded block keeps its feature-map size.
STRIDE = 1
#: Convolutions per block.
NUM_CONVS = 2
#: Batch-normalisation steps per block.
NUM_BATCH_NORMS = 2


@dataclass(frozen=True)
class BlockGeometry:
    """Shape of one building block (two 3x3 convolutions + 2 BN + ReLU)."""

    name: str
    in_channels: int
    out_channels: int
    height: int
    width: int

    @property
    def input_elements(self) -> int:
        """Number of values in the input feature map."""

        return self.in_channels * self.height * self.width

    @property
    def output_elements(self) -> int:
        """Number of values in the output feature map."""

        return self.out_channels * self.height * self.width

    @property
    def macs_per_conv(self) -> int:
        """Multiply-accumulate operations of one 3x3 convolution."""

        return self.out_channels * self.in_channels * KERNEL * KERNEL * self.height * self.width

    @property
    def total_macs(self) -> int:
        """MACs of the whole block (both convolutions)."""

        return self.macs_per_conv * NUM_CONVS

    @property
    def bn_elements(self) -> int:
        """Elements processed by the batch-normalisation steps (both BNs)."""

        return self.output_elements * NUM_BATCH_NORMS

    @property
    def weight_count(self) -> int:
        """Number of weight parameters of the two convolutions."""

        return self.out_channels * self.in_channels * KERNEL * KERNEL * NUM_CONVS

    @property
    def bn_parameter_count(self) -> int:
        """Gamma/beta (and running statistics) of the two BN steps."""

        return 4 * self.out_channels * NUM_BATCH_NORMS


LAYER1 = BlockGeometry(name="layer1", in_channels=16, out_channels=16, height=32, width=32)
LAYER2_2 = BlockGeometry(name="layer2_2", in_channels=32, out_channels=32, height=16, width=16)
LAYER3_2 = BlockGeometry(name="layer3_2", in_channels=64, out_channels=64, height=8, width=8)

#: Blocks the paper implements on the PL part (Section 3.1).
OFFLOADABLE_BLOCKS: Dict[str, BlockGeometry] = {
    "layer1": LAYER1,
    "layer2_2": LAYER2_2,
    "layer3_2": LAYER3_2,
}


def block_geometry(name: str) -> BlockGeometry:
    """Look up one of the offloadable block geometries by layer name."""

    try:
        return OFFLOADABLE_BLOCKS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown offloadable block '{name}'; expected one of {sorted(OFFLOADABLE_BLOCKS)}"
        ) from exc
