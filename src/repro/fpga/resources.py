"""FPGA resource-utilisation model (Table 3 of the paper).

Two views are provided:

* :func:`published_table3` — the exact Vivado post-implementation utilisations
  reported by the paper for layer1 / layer2_2 / layer3_2 at conv_x1 / x4 / x8 /
  x16.  These are measured numbers (the ground truth the reproduction is
  compared against).
* :class:`ResourceEstimator` — an analytical model of the same quantities:
  BRAM from the capacity plan of :mod:`repro.fpga.bram`, DSP slices as
  ``4 + 4·n_units`` (four DSP48 slices per 32-bit multiply-add unit plus the
  shared divide/sqrt datapath of the BN step, an exact match to Table 3),
  and LUT / FF counts from a linear per-unit cost model fitted to Table 3.

The estimator is used by the offload-feasibility check
(:mod:`repro.core.offload`) and by the word-length ablation, where no
published numbers exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from ..fixedpoint.qformat import QFormat, Q20
from .bram import BramPlan, plan_block_allocation
from ..platform import FpgaDevice, ResourceVector, ZYNQ_XC7Z020
from .geometry import BlockGeometry, block_geometry

__all__ = [
    "ResourceEstimate",
    "ResourceEstimator",
    "published_table3",
    "PUBLISHED_TABLE3",
    "dsp_count_kernel",
    "lut_count_kernel",
    "ff_count_kernel",
]


# -- calibration constants of the LUT/FF/DSP model ----------------------------------------
#
# The LUT and FF costs are modelled as a fixed control/BN part plus a
# per-MAC-unit datapath part; the constants below are least-squares fits to
# Table 3 (conv_x1..x16 across the three layers).

DSP_BASE = 4
DSP_PER_UNIT = 4
LUT_BASE = 1000.0
LUT_PER_UNIT = 500.0
FF_BASE = 700.0
FF_PER_UNIT = 220.0
#: Extra LUT/FF per MAC unit for wide-channel blocks (layer3_2's 64-input
#: adder tree is deeper, which shows up in its conv_x16 LUT count).
LUT_PER_UNIT_PER_CHANNEL = 1.2
FF_PER_UNIT_PER_CHANNEL = 0.6


# -- array-capable kernels ---------------------------------------------------------------
#
# Shared by the scalar estimator methods below and the batch-evaluation engine
# (:mod:`repro.api.batch`), which evaluates them over whole ``n_units`` axes.


def dsp_count_kernel(n_units):
    """DSP48 slices: the shared BN divide/sqrt unit plus slices per MAC unit."""

    return DSP_BASE + DSP_PER_UNIT * n_units


def lut_count_kernel(n_units, out_channels):
    """LUTs: fixed control/BN part plus a per-unit datapath part."""

    return LUT_BASE + n_units * (LUT_PER_UNIT + LUT_PER_UNIT_PER_CHANNEL * out_channels)


def ff_count_kernel(n_units, out_channels):
    """Flip-flops: fixed control/BN part plus a per-unit datapath part."""

    return FF_BASE + n_units * (FF_PER_UNIT + FF_PER_UNIT_PER_CHANNEL * out_channels)


#: Table 3 of the paper: absolute counts for (layer, n_units) -> (BRAM, DSP, LUT, FF).
PUBLISHED_TABLE3: Dict[Tuple[str, int], ResourceVector] = {
    ("layer1", 1): ResourceVector(bram=56, dsp=8, lut=1486, ff=835),
    ("layer1", 4): ResourceVector(bram=56, dsp=20, lut=2992, ff=1358),
    ("layer1", 8): ResourceVector(bram=56, dsp=36, lut=4740, ff=2058),
    ("layer1", 16): ResourceVector(bram=64, dsp=68, lut=8994, ff=4145),
    ("layer2_2", 1): ResourceVector(bram=56, dsp=8, lut=1482, ff=833),
    ("layer2_2", 4): ResourceVector(bram=56, dsp=20, lut=2946, ff=1346),
    ("layer2_2", 8): ResourceVector(bram=56, dsp=36, lut=4737, ff=2032),
    ("layer2_2", 16): ResourceVector(bram=56, dsp=68, lut=8844, ff=4873),
    ("layer3_2", 1): ResourceVector(bram=140, dsp=8, lut=1692, ff=927),
    ("layer3_2", 4): ResourceVector(bram=140, dsp=20, lut=3048, ff=1411),
    ("layer3_2", 8): ResourceVector(bram=140, dsp=36, lut=4907, ff=2059),
    ("layer3_2", 16): ResourceVector(bram=140, dsp=68, lut=12720, ff=6378),
}


def published_table3() -> Dict[Tuple[str, int], Dict[str, float]]:
    """Table 3 as absolute counts plus utilisation percentages of the
    PYNQ-Z2's XC7Z020."""

    table: Dict[Tuple[str, int], Dict[str, float]] = {}
    for key, vec in PUBLISHED_TABLE3.items():
        entry = vec.as_dict()
        entry.update({f"{k}_pct": v for k, v in vec.utilization(ZYNQ_XC7Z020).items()})
        table[key] = entry
    return table


@dataclass(frozen=True)
class ResourceEstimate:
    """Analytical resource estimate of one PL ODEBlock instance."""

    block: str
    n_units: int
    resources: ResourceVector
    bram_plan: BramPlan

    def fits(self, device: FpgaDevice = ZYNQ_XC7Z020) -> bool:
        return self.resources.fits(device)


class ResourceEstimator:
    """Analytical resource model for a PL ODEBlock instance."""

    def __init__(self, device: FpgaDevice = ZYNQ_XC7Z020, qformat: QFormat = Q20) -> None:
        self.device = device
        self.qformat = qformat

    def dsp_count(self, n_units: int) -> int:
        """DSP48 slices: 4 per multiply-add unit plus the BN divide/sqrt unit."""

        return int(dsp_count_kernel(n_units))

    def lut_count(self, geometry: BlockGeometry, n_units: int) -> float:
        return float(lut_count_kernel(n_units, geometry.out_channels))

    def ff_count(self, geometry: BlockGeometry, n_units: int) -> float:
        return float(ff_count_kernel(n_units, geometry.out_channels))

    def estimate(self, block: str | BlockGeometry, n_units: int = 16) -> ResourceEstimate:
        """Estimate the resources of one block implemented with ``n_units`` MACs."""

        geometry = block if isinstance(block, BlockGeometry) else block_geometry(block)
        plan = plan_block_allocation(geometry, n_units=n_units, qformat=self.qformat)
        resources = ResourceVector(
            bram=plan.total_tiles,
            dsp=self.dsp_count(n_units),
            lut=self.lut_count(geometry, n_units),
            ff=self.ff_count(geometry, n_units),
        )
        return ResourceEstimate(
            block=geometry.name, n_units=n_units, resources=resources, bram_plan=plan
        )

    def estimate_combination(
        self, blocks: Iterable[str | BlockGeometry], n_units: int = 16
    ) -> ResourceVector:
        """Total resources of several blocks placed on the PL at once.

        Used for the rODENet-1+2 configuration where layer1 *and* layer2_2
        are both implemented on the PL part (Section 3.2, case 3).
        """

        total = ResourceVector()
        for block in blocks:
            total = total + self.estimate(block, n_units=n_units).resources
        return total
