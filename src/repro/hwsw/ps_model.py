"""Software execution-time model of the PS part (board-parametric).

Table 5's "w/o PL" columns are wall-clock times of a pure software execution
on the PYNQ-Z2's Cortex-A9.  This module models that software cost as

    time = (MACs · PS_CYCLES_PER_MAC + elements · passes · PS_CYCLES_PER_ELEMENT)
           / f_PS  + per-image overhead

where

* ``PS_CYCLES_PER_MAC``  (7.6)  covers the inner convolution loops,
* ``PS_CYCLES_PER_ELEMENT`` (64) covers one software pass over a feature map
  (batch-norm statistics/normalisation, ReLU, or the residual addition), and
* ``PER_IMAGE_OVERHEAD_S`` (0.028 s) covers framework bookkeeping, pooling,
  softmax and data handling that do not scale with depth.

The constants were fitted to the four published ResNet-N totals
(0.54 / 0.89 / 1.24 / 1.58 s for N = 20 / 32 / 44 / 56) and cross-checked
against the per-layer "Target w/o PL" columns of Table 5; the model
reproduces all of them within a few percent (see
``tests/hwsw/test_ps_model.py``).

The clock comes from the board: the cycle counts are treated as
board-independent work, executed at the board's PS clock, and the fixed
per-image overhead scales inversely with that clock (it is CPU work too;
:func:`per_image_overhead_kernel`).  Per-ISA IPC differences (Cortex-A53 vs
the A9 the constants were fitted on) are deliberately not modelled — see
ROADMAP.md.
"""

from __future__ import annotations

from ..platform import BoardSpec, DEFAULT_BOARD

__all__ = [
    "SoftwareCostModel",
    "work_time_kernel",
    "work_cycles_kernel",
    "per_image_overhead_kernel",
]


#: CPU cycles per convolution multiply-accumulate.
PS_CYCLES_PER_MAC = 7.6

#: CPU cycles per feature-map element for one element-wise pass
#: (batch-norm, ReLU or residual add).
PS_CYCLES_PER_ELEMENT = 64.0

#: Fixed per-image overhead (framework bookkeeping, pooling, softmax) at the
#: reference board's PS clock, s.
PER_IMAGE_OVERHEAD_S = 0.028


def work_cycles_kernel(macs, elements, passes, cycles_per_mac, cycles_per_element):
    """Array-capable kernel: PS cycles of convolution + element-wise work.

    The clock-independent half of :func:`work_time_kernel`; the batch engine
    evaluates it once per layer and divides by a per-scenario clock column.
    """

    return macs * cycles_per_mac + elements * passes * cycles_per_element


def work_time_kernel(macs, elements, passes, cycles_per_mac, cycles_per_element, clock_hz):
    """Array-capable kernel: seconds of software work on the PS part.

    Shared by :meth:`SoftwareCostModel.work_time` and the batch-evaluation
    engine (:mod:`repro.api.batch`); inputs may be scalars or NumPy arrays.
    """

    cycles = work_cycles_kernel(macs, elements, passes, cycles_per_mac, cycles_per_element)
    return cycles / clock_hz


def per_image_overhead_kernel(ps_clock_hz):
    """Array-capable kernel: the per-image overhead at a board's PS clock.

    The overhead scales by the reference-to-board clock ratio.  For the
    reference board the ratio is exactly 1.0, so the result equals the
    fitted constant bit-for-bit.
    """

    return PER_IMAGE_OVERHEAD_S * (DEFAULT_BOARD.ps_clock_hz / ps_clock_hz)


class SoftwareCostModel:
    """Estimate software execution time of convolutional work on ``board``'s PS part."""

    def __init__(self, board: BoardSpec = DEFAULT_BOARD) -> None:
        self.clock_hz = board.ps_clock_hz

    def work_cycles(self, macs: float, elements: float = 0.0, passes: float = 0.0) -> float:
        """Clock-independent PS cycles of ``macs`` MACs plus element passes."""

        return float(
            work_cycles_kernel(macs, elements, passes, PS_CYCLES_PER_MAC, PS_CYCLES_PER_ELEMENT)
        )

    def work_time(self, macs: float, elements: float = 0.0, passes: float = 0.0) -> float:
        """Seconds to execute ``macs`` MACs plus ``passes`` passes over ``elements``."""

        return float(
            work_time_kernel(
                macs, elements, passes, PS_CYCLES_PER_MAC, PS_CYCLES_PER_ELEMENT, self.clock_hz
            )
        )

    def block_time(self, macs: float, out_elements: float, elementwise_passes: int) -> float:
        """Seconds for one building-block (or layer-group) execution."""

        return self.work_time(macs, out_elements, elementwise_passes)

    def per_image_overhead(self) -> float:
        """Fixed per-image software overhead in seconds."""

        return float(per_image_overhead_kernel(self.clock_hz))
