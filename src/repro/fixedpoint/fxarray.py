"""Vectorised fixed-point array type.

:class:`FxArray` wraps an integer NumPy array together with its
:class:`~repro.fixedpoint.qformat.QFormat`.  It is the data type flowing
through the simulated PL datapath in :mod:`repro.fpga.ops` and
:mod:`repro.fpga.odeblock_hw`, which compute on the raw integer words with
:mod:`repro.fixedpoint.arithmetic`.
"""

from __future__ import annotations

import numpy as np

from . import arithmetic as fx
from .qformat import QFormat, Q20

__all__ = ["FxArray"]


class FxArray:
    """An n-dimensional fixed-point array."""

    __slots__ = ("raw", "fmt")

    def __init__(self, raw: np.ndarray, fmt: QFormat = Q20) -> None:
        self.raw = np.asarray(raw, dtype=np.int64)
        self.fmt = fmt

    @classmethod
    def from_float(cls, values, fmt: QFormat = Q20) -> "FxArray":
        """Quantise floating-point ``values`` (saturating) into an :class:`FxArray`."""

        return cls(fmt.to_fixed(values), fmt)

    def to_float(self) -> np.ndarray:
        """Dequantise back to float64."""

        return self.fmt.to_float(self.raw)

    @property
    def shape(self):
        return self.raw.shape

    @property
    def ndim(self) -> int:
        return self.raw.ndim

    def relu(self) -> "FxArray":
        return FxArray(fx.fx_relu(self.raw, self.fmt), self.fmt)
