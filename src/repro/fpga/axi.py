"""PS <-> PL data-transfer model (AXI / DMA).

Section 4.4 of the paper: "PS and PL parts are typically connected via AXI
bus and DMA transfer is used for their communication though not fully
implemented in our design.  We assume that data transfer latency between PS
and PL parts is 1 cycle per float32."

This module reproduces that assumption: 1 cycle of the board's PL clock per
32-bit word.  The cycles-per-word rate is a parameter only because the
AXI-degradation fault mode (:class:`repro.faults.modes.AxiDegradation`)
prices a narrowed bus with it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..platform import BoardSpec, DEFAULT_BOARD
from .geometry import BlockGeometry

__all__ = ["BYTES_PER_WORD", "TransferEstimate", "AxiTransferModel", "transfer_cycles_kernel"]


#: Bytes per transferred word (one float32 / Q-format word).
BYTES_PER_WORD = 4


def transfer_cycles_kernel(num_words, cycles_per_word):
    """Cycles to move ``num_words`` words over AXI.

    A zero-word transfer costs nothing (no DMA descriptor is set up): with a
    finite ``cycles_per_word`` the product is already zero.
    """

    return num_words * cycles_per_word


@dataclass(frozen=True)
class TransferEstimate:
    """Cycles/time needed to move one block's input and output feature maps."""

    words_in: int
    words_out: int
    cycles: float
    seconds: float


class AxiTransferModel:
    """Estimate PS<->PL transfer cost for ODEBlock offloading.

    Transfers are counted against ``board``'s PL clock at ``cycles_per_word``
    cycles per 32-bit word (the paper's optimistic assumption is 1).
    """

    def __init__(self, board: BoardSpec = DEFAULT_BOARD, cycles_per_word: float = 1.0) -> None:
        self.clock_hz = board.pl_clock_hz
        self.cycles_per_word = cycles_per_word

    def transfer_cycles(self, num_words: int) -> float:
        """Cycles to move ``num_words`` 32-bit words across the AXI bus."""

        if num_words < 0:
            raise ValueError("num_words must be non-negative")
        return float(transfer_cycles_kernel(num_words, self.cycles_per_word))

    def transfer_seconds(self, num_words: int) -> float:
        return self.transfer_cycles(num_words) / self.clock_hz

    def block_round_trip(self, geometry: BlockGeometry) -> TransferEstimate:
        """Transfer estimate for one ODEBlock invocation.

        The input feature map is sent PS->PL and the output feature map is
        returned PL->PS.
        """

        words_in = geometry.input_elements
        words_out = geometry.output_elements
        cycles = self.transfer_cycles(words_in) + self.transfer_cycles(words_out)
        return TransferEstimate(
            words_in=words_in,
            words_out=words_out,
            cycles=cycles,
            seconds=cycles / self.clock_hz,
        )
