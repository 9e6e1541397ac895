"""Deployment export: pack quantised ODEBlock weights for the board.

On the real system the trained weights of the offloaded ODEBlock must be
converted to the 32-bit Q20 fixed-point format and written into the BRAM
regions of the PL bitstream (or uploaded over AXI at start-up).  This module
implements that packaging step for the simulated flow:

* :func:`export_block_weights` serialises a :class:`BlockWeights` bundle into
  a flat little-endian byte image laid out exactly like the BRAM plan of
  :func:`repro.fpga.bram.plan_block_allocation` (conv1 weights, conv2
  weights, BN parameters), preceded by a small self-describing header;
* :class:`WeightImageHeader` parses the header back (the RTL emitter reads
  its BRAM init files from the image this way).

The tests read whole images back into float weights to show the round trip
is lossless up to the Q-format quantisation.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..fixedpoint import QFormat, Q20
from .odeblock_hw import BlockWeights

__all__ = [
    "WeightImageHeader",
    "WeightImageError",
    "WeightImageMagicError",
    "WeightImageVersionError",
    "export_block_weights",
]

#: Magic number identifying a weight image ("ODEW" little-endian).
_MAGIC = 0x4F444557
_HEADER_STRUCT = struct.Struct("<IHHHHHHB3x")
_VERSION = 1


class WeightImageError(ValueError):
    """Base class for malformed weight-image failures."""


class WeightImageMagicError(WeightImageError):
    """The image does not start with the ODEW magic number."""

    def __init__(self, found: int):
        self.found = found
        self.expected = _MAGIC
        super().__init__(
            f"not an ODEBlock weight image: magic 0x{found:08X}, "
            f"expected 0x{_MAGIC:08X} ('ODEW')"
        )


class WeightImageVersionError(WeightImageError):
    """The image's format version is not one this reader understands."""

    def __init__(self, found: int):
        self.found = found
        self.expected = _VERSION
        super().__init__(
            f"unsupported weight image version {found}, expected {_VERSION}"
        )


@dataclass(frozen=True)
class WeightImageHeader:
    """Self-describing header of an exported weight image."""

    in_channels: int
    out_channels: int
    kernel: int
    word_length: int
    fraction_bits: int
    time_concat: bool

    def pack(self) -> bytes:
        return _HEADER_STRUCT.pack(
            _MAGIC,
            _VERSION,
            self.in_channels,
            self.out_channels,
            self.kernel,
            self.word_length,
            self.fraction_bits,
            1 if self.time_concat else 0,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "WeightImageHeader":
        if len(data) < _HEADER_STRUCT.size:
            raise WeightImageError(
                f"weight image truncated: {len(data)} bytes, "
                f"the header alone is {_HEADER_STRUCT.size}"
            )
        magic, version, in_ch, out_ch, kernel, word, frac, concat = _HEADER_STRUCT.unpack(
            data[: _HEADER_STRUCT.size]
        )
        if magic != _MAGIC:
            raise WeightImageMagicError(magic)
        if version != _VERSION:
            raise WeightImageVersionError(version)
        return cls(
            in_channels=in_ch,
            out_channels=out_ch,
            kernel=kernel,
            word_length=word,
            fraction_bits=frac,
            time_concat=bool(concat),
        )

    @property
    def size(self) -> int:
        return _HEADER_STRUCT.size


def _dtype_for(fmt: QFormat) -> np.dtype:
    if fmt.word_length <= 8:
        return np.dtype("<i1")
    if fmt.word_length <= 16:
        return np.dtype("<i2")
    if fmt.word_length <= 32:
        return np.dtype("<i4")
    return np.dtype("<i8")


def _conv_in_channels(weights: BlockWeights) -> Tuple[int, bool]:
    out_ch, in_ch = weights.conv1_weight.shape[:2]
    time_concat = in_ch == out_ch + 1
    return in_ch - (1 if time_concat else 0), time_concat


def export_block_weights(
    weights: BlockWeights,
    qformat: QFormat = Q20,
) -> bytes:
    """Serialise an ODEBlock's weights into the deployment byte image.

    Layout: header, conv1 weights, conv2 weights, then the BN parameters in
    the order gamma1, beta1, mean1, var1, gamma2, beta2, mean2, var2 (running
    statistics default to 0 / 1 when the bundle does not carry them).
    """

    out_ch = weights.conv1_weight.shape[0]
    kernel = weights.conv1_weight.shape[2]
    in_ch, time_concat = _conv_in_channels(weights)
    header = WeightImageHeader(
        in_channels=in_ch,
        out_channels=out_ch,
        kernel=kernel,
        word_length=qformat.word_length,
        fraction_bits=qformat.fraction_bits,
        time_concat=time_concat,
    )

    dtype = _dtype_for(qformat)
    pieces = [header.pack()]
    bn_defaults = {
        "bn1_mean": np.zeros(out_ch),
        "bn1_var": np.ones(out_ch),
        "bn2_mean": np.zeros(out_ch),
        "bn2_var": np.ones(out_ch),
    }
    arrays = [
        weights.conv1_weight,
        weights.conv2_weight,
        weights.bn1_gamma,
        weights.bn1_beta,
        weights.bn1_mean if weights.bn1_mean is not None else bn_defaults["bn1_mean"],
        weights.bn1_var if weights.bn1_var is not None else bn_defaults["bn1_var"],
        weights.bn2_gamma,
        weights.bn2_beta,
        weights.bn2_mean if weights.bn2_mean is not None else bn_defaults["bn2_mean"],
        weights.bn2_var if weights.bn2_var is not None else bn_defaults["bn2_var"],
    ]
    for array in arrays:
        fixed = qformat.to_fixed(np.asarray(array, dtype=np.float64))
        pieces.append(fixed.astype(dtype).tobytes())
    return b"".join(pieces)
