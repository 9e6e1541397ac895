"""PS <-> PL data-transfer model (AXI / DMA).

Section 4.4 of the paper: "PS and PL parts are typically connected via AXI
bus and DMA transfer is used for their communication though not fully
implemented in our design.  We assume that data transfer latency between PS
and PL parts is 1 cycle per float32."

This module reproduces that assumption (1 PL clock cycle per 32-bit word) and
additionally exposes a more detailed burst model (setup latency + words per
beat) for the transfer-sensitivity ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..platform import BoardSpec, DEFAULT_BOARD
from .geometry import BlockGeometry

__all__ = ["AxiTransferConfig", "TransferEstimate", "AxiTransferModel", "transfer_cycles_kernel"]


def transfer_cycles_kernel(num_words, setup_cycles, cycles_per_word):
    """Array-capable kernel: cycles to move ``num_words`` words over AXI.

    Zero-word transfers cost nothing (no DMA descriptor is set up).  Accepts
    scalars or NumPy arrays; the scalar model method wraps it in ``float()``
    so both paths share one formula (see :mod:`repro.api.batch`).
    """

    words = np.asarray(num_words)
    return np.where(words == 0, 0.0, setup_cycles + words * cycles_per_word)


@dataclass(frozen=True)
class AxiTransferConfig:
    """Transfer model parameters."""

    #: Cycles per 32-bit word (the paper's optimistic assumption is 1).
    cycles_per_word: float = 1.0

    #: Fixed per-transfer setup cycles (DMA descriptor setup, interrupt).
    setup_cycles: float = 0.0

    #: PL clock the transfers are counted against (default: the reference
    #: board's — the single source of truth is ``BoardSpec.pl_clock_hz``).
    clock_hz: float = DEFAULT_BOARD.pl_clock_hz

    #: Bytes per transferred word.
    bytes_per_word: int = 4

    @classmethod
    def for_board(cls, board: BoardSpec) -> "AxiTransferConfig":
        """The paper's transfer assumption clocked at a board's PL clock."""

        return cls(clock_hz=board.pl_clock_hz)


@dataclass(frozen=True)
class TransferEstimate:
    """Cycles/time needed to move one block's input and output feature maps."""

    words_in: int
    words_out: int
    cycles: float
    seconds: float


class AxiTransferModel:
    """Estimate PS<->PL transfer cost for ODEBlock offloading."""

    def __init__(self, config: AxiTransferConfig | None = None) -> None:
        self.config = config or AxiTransferConfig()

    def transfer_cycles(self, num_words: int) -> float:
        """Cycles to move ``num_words`` 32-bit words across the AXI bus."""

        if num_words < 0:
            raise ValueError("num_words must be non-negative")
        return float(
            transfer_cycles_kernel(num_words, self.config.setup_cycles, self.config.cycles_per_word)
        )

    def transfer_seconds(self, num_words: int) -> float:
        return self.transfer_cycles(num_words) / self.config.clock_hz

    def block_round_trip(
        self, geometry: BlockGeometry, include_input: bool = True, include_output: bool = True
    ) -> TransferEstimate:
        """Transfer estimate for one ODEBlock invocation.

        The input feature map is sent PS->PL and the output feature map is
        returned PL->PS.  When the same block is executed repeatedly (the
        ODENet iteration), the intermediate states can stay in BRAM, so
        callers may disable either direction.
        """

        words_in = geometry.input_elements if include_input else 0
        words_out = geometry.output_elements if include_output else 0
        cycles = self.transfer_cycles(words_in) + self.transfer_cycles(words_out)
        return TransferEstimate(
            words_in=words_in,
            words_out=words_out,
            cycles=cycles,
            seconds=cycles / self.config.clock_hz,
        )
