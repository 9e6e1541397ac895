"""Block-RAM allocation model.

The PL-part ODEBlock stores the weight parameters of its two convolutions and
the input/intermediate/output feature maps in on-chip Block RAM (Section 3.1:
"Weight parameters θ of the two convolution steps are stored in Block RAM
(BRAM) of the FPGA. Input and output feature maps for all the channels are
also stored in the BRAM.").  This module turns byte requirements into BRAM36
tile counts and produces a named allocation plan that the resource estimator
and the offload-feasibility check consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..fixedpoint.qformat import QFormat, Q20
from ..platform import ZYNQ_XC7Z020
from .geometry import NUM_CONVS, BlockGeometry

__all__ = [
    "BramRegion",
    "BramPlan",
    "tiles_for_bytes",
    "plan_block_allocation",
    "tiles_for_bytes_kernel",
    "bram_tiles_kernel",
    "bram_fits_kernel",
]


#: Usable data bytes of one BRAM36 tile (4 KiB of data; the parity bits are
#: not usable for packed 32-bit words).
BRAM36_BYTES = 4096

#: The full feature-map buffers held on chip: input, intermediate and output.
FEATURE_MAP_BUFFERS = ("input_fmap", "intermediate_fmap", "output_fmap")


# -- array-capable kernels ---------------------------------------------------------------
#
# Shared by the scalar planner below and the batch-evaluation engine
# (:mod:`repro.api.batch`), which evaluates them over whole Q-format /
# word-length axes at once.  Tile counts are exact integer arithmetic in both
# paths (Python ints or int64 arrays, through the same operators), so scalar
# and array results are identical by construction and the scalar planner
# needs no NumPy (pinned by ``tests/fpga/test_plan_kernels.py``).


def tiles_for_bytes_kernel(num_bytes):
    """BRAM36 tiles needed per byte count (ceil division; 0 bytes -> 0 tiles).

    Accepts a Python int or an integer array.
    """

    return -(-num_bytes // BRAM36_BYTES)


def bram_tiles_kernel(geometry: BlockGeometry, bytes_per_value):
    """Total BRAM36 tiles of one block's allocation plan, vectorized.

    ``bytes_per_value`` may be a Python int or an integer array (e.g. one
    entry per scenario of a word-length sweep).  Matches
    ``plan_block_allocation(geometry, qformat=...).total_tiles`` exactly:
    one capacity-driven region per convolution's weights, one for the BN
    parameters and one per :data:`FEATURE_MAP_BUFFERS` entry.  The
    tile count is independent of ``n_units`` (banking redistributes words,
    it does not add tiles).
    """

    per_conv_weights = geometry.weight_count // NUM_CONVS
    conv_tiles = tiles_for_bytes_kernel(per_conv_weights * bytes_per_value)
    bn_tiles = tiles_for_bytes_kernel(geometry.bn_parameter_count * bytes_per_value)
    fmap_tiles = tiles_for_bytes_kernel(geometry.output_elements * bytes_per_value)
    return NUM_CONVS * conv_tiles + bn_tiles + len(FEATURE_MAP_BUFFERS) * fmap_tiles


def bram_fits_kernel(total_tiles):
    """Boolean fits/overflow mask of tile counts against the PYNQ-Z2's BRAM."""

    return total_tiles <= ZYNQ_XC7Z020.bram36


def tiles_for_bytes(num_bytes: int) -> int:
    """Number of BRAM36 tiles needed to hold ``num_bytes`` of data."""

    if num_bytes < 0:
        raise ValueError("num_bytes must be non-negative")
    return int(tiles_for_bytes_kernel(num_bytes))


@dataclass(frozen=True)
class BramRegion:
    """One named region of the BRAM allocation (e.g. 'conv1 weights')."""

    name: str
    num_bytes: int
    tiles: int
    banks: int = 1

    def as_dict(self) -> Dict[str, int]:
        return {"name": self.name, "bytes": self.num_bytes, "tiles": self.tiles, "banks": self.banks}


@dataclass
class BramPlan:
    """Complete BRAM allocation of one PL ODEBlock instance."""

    block: str
    regions: List[BramRegion] = field(default_factory=list)

    @property
    def total_tiles(self) -> int:
        return sum(r.tiles for r in self.regions)

    def region(self, name: str) -> BramRegion:
        for r in self.regions:
            if r.name == name:
                return r
        available = ", ".join(r.name for r in self.regions) or "(none)"
        raise KeyError(f"no BRAM region named '{name}'; available regions: {available}")


def plan_block_allocation(
    geometry: BlockGeometry,
    n_units: int = 16,
    qformat: QFormat = Q20,
) -> BramPlan:
    """Plan the BRAM allocation of one ODEBlock.

    Parameters
    ----------
    geometry:
        The block geometry (layer1 / layer2_2 / layer3_2).
    n_units:
        Number of multiply-add units.  Each unit needs concurrent access to a
        weight word, so the weight words are interleaved across up to
        ``n_units`` banks — recorded as the regions' ``banks`` attribute.
        In this model banking only redistributes words; the tile count stays
        capacity-driven and is therefore independent of ``n_units`` (which
        is what lets :func:`bram_tiles_kernel` drop the unit axis).  The
        published Table 3 shows layer1's conv_x16 BRAM slightly above
        conv_x8 — a banking-granularity effect this capacity model
        deliberately does not reproduce (see ``tests/fpga/test_resources.py``
        for the published-vs-model comparison).
    qformat:
        Fixed-point format of the stored values (32-bit Q20 by default; the
        word-length ablation passes narrower formats here).
    """

    bpv = qformat.bytes_per_value
    regions: List[BramRegion] = []

    per_conv_weights = geometry.weight_count // NUM_CONVS
    per_conv_bytes = per_conv_weights * bpv
    banks = max(1, min(n_units, geometry.out_channels))
    for i in range(NUM_CONVS):
        # Weight words are interleaved across `banks` banks for parallel
        # access.  The tile count is driven by capacity; banking mainly
        # affects how the words are distributed, so at least one tile per
        # bank is required only when capacity alone would give fewer tiles
        # than there are banks.
        tiles = max(tiles_for_bytes(per_conv_bytes), 0)
        regions.append(
            BramRegion(name=f"conv{i + 1}_weights", num_bytes=per_conv_bytes, tiles=tiles, banks=banks)
        )

    bn_bytes = geometry.bn_parameter_count * bpv
    regions.append(BramRegion(name="bn_parameters", num_bytes=bn_bytes, tiles=tiles_for_bytes(bn_bytes)))

    fmap_bytes = geometry.output_elements * bpv
    for name in FEATURE_MAP_BUFFERS:
        regions.append(BramRegion(name=name, num_bytes=fmap_bytes, tiles=tiles_for_bytes(fmap_bytes)))

    return BramPlan(block=geometry.name, regions=regions)
