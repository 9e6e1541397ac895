"""Static description of the paper's CIFAR network (Table 2).

The network processes 32x32x3 images through seven named layer groups:

========== ==================== ======================= =========
name        role                 output size             stride
========== ==================== ======================= =========
conv1       pre-processing       32 x 32, 16 ch          1
layer1      building blocks      32 x 32, 16 ch          1
layer2_1    down-sampling block  16 x 16, 32 ch          2
layer2_2    building blocks      16 x 16, 32 ch          1
layer3_1    down-sampling block  8 x 8, 64 ch            2
layer3_2    building blocks      8 x 8, 64 ch            1
fc          post-processing      100 classes             –
========== ==================== ======================= =========

:class:`LayerGeometry` records the shapes plus derived quantities needed by
the parameter-size model (Table 2 / Figure 5), the execution-time model
(Table 5) and the FPGA hardware model (which only ever sees layer1,
layer2_2 and layer3_2 — the repeated, offloadable blocks).

Parameter-count conventions (reverse-engineered from Table 2 and verified to
reproduce every published kB value exactly — see
``tests/core/test_parameter_model.py``):

* convolutions carry no bias;
* each batch-normalisation contributes ``2 * channels`` parameters (gamma and
  beta);
* a building block used as an **ODEBlock** concatenates the scalar time ``t``
  as one extra input channel to *both* of its convolutions (the standard
  Neural-ODE "ConcatConv" construction), so each conv has ``in_ch + 1`` input
  channels — this is what makes the ODENet layer1 block 19.84 kB instead of
  the plain 18.69 kB;
* the down-sampling blocks layer2_1 / layer3_1 use parameter-free shortcuts
  (subsample + zero-pad channels, "option A" of the original ResNet paper),
  so no projection weights are counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..fpga.geometry import LAYER1, LAYER2_2, LAYER3_2, BlockGeometry

__all__ = [
    "LayerGeometry",
    "NETWORK_LAYERS",
    "LAYER_ORDER",
    "OFFLOADABLE_LAYER_NAMES",
    "layer_geometry",
    "NUM_CLASSES",
    "INPUT_CHANNELS",
    "INPUT_SIZE",
]

NUM_CLASSES = 100
INPUT_CHANNELS = 3
INPUT_SIZE = 32

#: Scalar ops per output element executed in software around the convolutions
#: of a building block: two batch-norms, one ReLU and the residual addition.
BLOCK_ELEMENTWISE_PASSES = 4

#: For the pre-processing conv1 step: one batch-norm and one ReLU.
CONV1_ELEMENTWISE_PASSES = 2


@dataclass(frozen=True)
class LayerGeometry:
    """Geometry and cost profile of one named layer group."""

    name: str
    kind: str  # "conv", "block", "downsample_block", "fc"
    in_channels: int
    out_channels: int
    out_height: int
    out_width: int
    kernel: int = 3
    stride: int = 1

    # -- derived sizes -------------------------------------------------------

    @property
    def out_elements(self) -> int:
        return self.out_channels * self.out_height * self.out_width

    # -- MAC counts ------------------------------------------------------------

    @property
    def macs(self) -> int:
        """Multiply-accumulates of one execution of this layer group."""

        if self.kind == "conv":
            return self.out_channels * self.in_channels * self.kernel ** 2 * self.out_elements // self.out_channels * 1
        if self.kind in ("block", "downsample_block"):
            k2 = self.kernel ** 2
            conv_a = self.out_channels * self.in_channels * k2 * self.out_height * self.out_width
            conv_b = self.out_channels * self.out_channels * k2 * self.out_height * self.out_width
            return conv_a + conv_b
        if self.kind == "fc":
            return self.in_channels * self.out_channels
        raise ValueError(f"unknown layer kind {self.kind}")

    @property
    def elementwise_passes(self) -> int:
        """Per-output-element scalar passes executed in software."""

        if self.kind == "conv":
            return CONV1_ELEMENTWISE_PASSES
        if self.kind in ("block", "downsample_block"):
            return BLOCK_ELEMENTWISE_PASSES
        if self.kind == "fc":
            return 1  # softmax / pooling bookkeeping
        raise ValueError(f"unknown layer kind {self.kind}")

    # -- parameter counts ---------------------------------------------------------

    def parameter_count(self, as_odeblock: bool = False) -> int:
        """Trainable parameters of one block instance of this layer group.

        ``as_odeblock`` adds the time-concatenation input channel to both
        convolutions (only meaningful for the "block" kinds).
        """

        if self.kind == "conv":
            conv = self.out_channels * self.in_channels * self.kernel ** 2
            bn = 2 * self.out_channels
            return conv + bn
        if self.kind in ("block", "downsample_block"):
            extra = 1 if as_odeblock else 0
            k2 = self.kernel ** 2
            conv_a = self.out_channels * (self.in_channels + extra) * k2
            conv_b = self.out_channels * (self.out_channels + extra) * k2
            bn = 2 * (2 * self.out_channels)
            return conv_a + conv_b + bn
        if self.kind == "fc":
            return self.in_channels * self.out_channels + self.out_channels
        raise ValueError(f"unknown layer kind {self.kind}")

    def parameter_bytes(self, as_odeblock: bool = False) -> int:
        """32-bit parameters."""

        return self.parameter_count(as_odeblock) * 4

    def parameter_kilobytes(self, as_odeblock: bool = False) -> float:
        return self.parameter_bytes(as_odeblock) / 1000.0

    # -- FPGA geometry -------------------------------------------------------------

    def fpga_geometry(self) -> BlockGeometry:
        """The corresponding offloadable block geometry (layer1/2_2/3_2 only)."""

        mapping = {"layer1": LAYER1, "layer2_2": LAYER2_2, "layer3_2": LAYER3_2}
        if self.name not in mapping:
            raise ValueError(f"layer '{self.name}' is not offloadable to the PL part")
        return mapping[self.name]


# Note on conv1 MACs: the expression in `macs` simplifies to
# out_ch*in_ch*k^2*H*W for the "conv" kind; it is written via out_elements to
# keep a single code path for strided layers.
NETWORK_LAYERS: Dict[str, LayerGeometry] = {
    "conv1": LayerGeometry("conv1", "conv", INPUT_CHANNELS, 16, 32, 32, stride=1),
    "layer1": LayerGeometry("layer1", "block", 16, 16, 32, 32, stride=1),
    "layer2_1": LayerGeometry("layer2_1", "downsample_block", 16, 32, 16, 16, stride=2),
    "layer2_2": LayerGeometry("layer2_2", "block", 32, 32, 16, 16, stride=1),
    "layer3_1": LayerGeometry("layer3_1", "downsample_block", 32, 64, 8, 8, stride=2),
    "layer3_2": LayerGeometry("layer3_2", "block", 64, 64, 8, 8, stride=1),
    "fc": LayerGeometry("fc", "fc", 64, NUM_CLASSES, 1, 1, kernel=1),
}

LAYER_ORDER: Tuple[str, ...] = (
    "conv1",
    "layer1",
    "layer2_1",
    "layer2_2",
    "layer3_1",
    "layer3_2",
    "fc",
)

#: Layer groups that can be implemented on the PL part (Section 3.1).
OFFLOADABLE_LAYER_NAMES: Tuple[str, ...] = ("layer1", "layer2_2", "layer3_2")


def layer_geometry(name: str) -> LayerGeometry:
    """Look up a layer group by name."""

    try:
        return NETWORK_LAYERS[name]
    except KeyError as exc:
        raise KeyError(f"unknown layer '{name}'; expected one of {LAYER_ORDER}") from exc
