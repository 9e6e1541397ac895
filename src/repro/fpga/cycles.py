"""Cycle-count model of the PL-part ODEBlock datapath.

Section 3.1 of the paper describes a five-step pipeline (conv, BN, ReLU,
conv, BN) whose convolution/ReLU steps are executed by 1–64 multiply-add
units, and states that "their execution cycles (except for the batch
normalization) decrease in inverse proportion to the number of multiply-add
units".  It also publishes the execution cycles of layer3_2 for the
conv_x1/x4/x8/x16/x32 configurations: 23.78M, 6.07M, 3.12M, 1.64M and 0.90M
cycles.

The model here is:

* convolution + ReLU cycles  =  ``total_MACs / n_units * CYCLES_PER_MAC``
  (``CYCLES_PER_MAC`` = 5.0, the initiation interval of the multiply-add
  pipeline fitted to the published counts; parallelism is capped by the
  number of output channels, as the paper notes);
* batch-normalisation cycles =  ``bn_elements * BN_CYCLES_PER_ELEMENT``
  (``BN_CYCLES_PER_ELEMENT`` = 21, covering the mean / variance /
  square-root / normalise passes; independent of the MAC-unit count).

With those two constants the model reproduces all five published cycle
counts within ~1 % (see ``tests/fpga/test_cycles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..platform import DEFAULT_BOARD
from .geometry import BlockGeometry

__all__ = [
    "CycleBreakdown",
    "OdeBlockCycleModel",
    "PAPER_LAYER3_2_CYCLES",
    "effective_units_kernel",
    "conv_cycles_kernel",
    "bn_cycles_kernel",
    "block_seconds_kernel",
]


#: Published execution cycles of layer3_2 for each conv_xN configuration
#: (Section 3.1 of the paper), used for calibration tests.
PAPER_LAYER3_2_CYCLES: Dict[int, float] = {
    1: 23.78e6,
    4: 6.07e6,
    8: 3.12e6,
    16: 1.64e6,
    32: 0.90e6,
}


#: Clock cycles per multiply-accumulate issued to one MAC unit.  Fitted to
#: the published layer3_2 cycle counts (23.61e6 cycles / 4.72e6 MACs).  The
#: published numbers are consistent with ReLU being fused into this
#: convolution pipeline, so the ReLU step adds no cycles of its own.
CYCLES_PER_MAC = 5.0

#: Clock cycles per feature-map element for one batch-normalisation pass
#: (mean + variance + sqrt + normalise), independent of MAC-unit count.
BN_CYCLES_PER_ELEMENT = 21.0


# -- array-capable kernels ---------------------------------------------------------------
#
# The batch-evaluation engine (:mod:`repro.api.batch`) computes these formulas
# over whole scenario axes at once, so each is exposed as a kernel accepting
# either scalars or NumPy arrays.  The scalar model methods below delegate to
# the same kernels (wrapped in ``float()``), which keeps the two paths
# bit-identical: every operation is an IEEE-754 double op in both cases.


def effective_units_kernel(n_units, out_channels):
    """MAC units usable for a block: parallelism is capped by output channels."""

    return np.minimum(n_units, out_channels)


def conv_cycles_kernel(total_macs, units):
    """Cycles of both convolution steps given the *effective* unit count."""

    return total_macs / units * CYCLES_PER_MAC


def bn_cycles_kernel(bn_elements):
    """Cycles of both batch-normalisation steps (parallelism-independent)."""

    return bn_elements * BN_CYCLES_PER_ELEMENT


def block_seconds_kernel(conv_cycles, bn_cycles, clock_hz):
    """Wall-clock seconds of one block execution at a given PL clock."""

    return (conv_cycles + bn_cycles) / clock_hz


@dataclass(frozen=True)
class CycleBreakdown:
    """Cycle counts of one ODEBlock execution on the PL part."""

    conv_cycles: float
    bn_cycles: float

    @property
    def total(self) -> float:
        return self.conv_cycles + self.bn_cycles

    def time_seconds(self, clock_hz: float) -> float:
        """Wall-clock execution time at the given PL clock frequency."""

        return float(block_seconds_kernel(self.conv_cycles, self.bn_cycles, clock_hz))


class OdeBlockCycleModel:
    """Cycle model for a single building block executed on the PL part."""

    def effective_units(self, geometry: BlockGeometry, n_units: int) -> int:
        """MAC-unit count actually usable for a block.

        The paper notes the parallelism "is also restricted by the number of
        output channels", so e.g. layer1 (16 channels) cannot use more than 16
        units.
        """

        if n_units < 1:
            raise ValueError("n_units must be >= 1")
        return int(effective_units_kernel(n_units, geometry.out_channels))

    def conv_cycles(self, geometry: BlockGeometry, n_units: int) -> float:
        """Cycles of both convolution steps with ``n_units`` MAC units."""

        units = self.effective_units(geometry, n_units)
        return float(conv_cycles_kernel(geometry.total_macs, units))

    def bn_cycles(self, geometry: BlockGeometry) -> float:
        """Cycles of both batch-normalisation steps (parallelism-independent)."""

        return float(bn_cycles_kernel(geometry.bn_elements))

    def block_cycles(self, geometry: BlockGeometry, n_units: int) -> CycleBreakdown:
        """Full cycle breakdown of one ODEBlock execution."""

        return CycleBreakdown(
            conv_cycles=self.conv_cycles(geometry, n_units),
            bn_cycles=self.bn_cycles(geometry),
        )

    def block_time_seconds(self, geometry: BlockGeometry, n_units: int) -> float:
        """Execution time of one block at the PYNQ-Z2's PL clock."""

        return self.block_cycles(geometry, n_units).time_seconds(DEFAULT_BOARD.pl_clock_hz)
