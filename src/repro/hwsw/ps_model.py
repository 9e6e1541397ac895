"""Software execution-time model of the PS part (board-parametric).

Table 5's "w/o PL" columns are wall-clock times of a pure software execution
on the PYNQ-Z2's Cortex-A9.  This module models that software cost as

    time = (MACs · cycles_per_mac + elements · passes · cycles_per_element)
           / f_PS  + per-image overhead

where

* ``cycles_per_mac``  (7.6)  covers the inner convolution loops,
* ``cycles_per_element`` (64) covers one software pass over a feature map
  (batch-norm statistics/normalisation, ReLU, or the residual addition), and
* ``per_image_overhead_s`` (0.028 s) covers framework bookkeeping, pooling,
  softmax and data handling that do not scale with depth.

The constants were fitted to the four published ResNet-N totals
(0.54 / 0.89 / 1.24 / 1.58 s for N = 20 / 32 / 44 / 56) and cross-checked
against the per-layer "Target w/o PL" columns of Table 5; the model
reproduces all of them within a few percent (see
``tests/hwsw/test_ps_model.py``).

The clock comes from the board (:meth:`PsModelConfig.for_board`): the cycle
counts are treated as board-independent work, executed at the board's PS
clock, and the fixed per-image overhead scales inversely with that clock
(it is CPU work too).  Per-ISA IPC differences (Cortex-A53 vs the A9 the
constants were fitted on) are deliberately not modelled — see ROADMAP.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..platform import BoardSpec, DEFAULT_BOARD

__all__ = ["PsModelConfig", "SoftwareCostModel", "work_time_kernel", "work_cycles_kernel"]


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


@dataclass(frozen=True)
class PsModelConfig:
    """Calibration constants of the PS software-execution model."""

    #: PS clock frequency in Hz (default: the reference board's 650 MHz A9).
    clock_hz: float = DEFAULT_BOARD.ps_clock_hz

    #: CPU cycles per convolution multiply-accumulate.
    cycles_per_mac: float = 7.6

    #: CPU cycles per feature-map element for one element-wise pass
    #: (batch-norm, ReLU or residual add).
    cycles_per_element: float = 64.0

    #: Fixed per-image overhead (framework bookkeeping, pooling, softmax), s.
    per_image_overhead_s: float = 0.028

    @classmethod
    def for_board(cls, board: BoardSpec) -> "PsModelConfig":
        """Calibration constants re-clocked for a board.

        The cycle costs are kept (board-independent work); the clock becomes
        the board's PS clock, and the fixed overhead — CPU work too — scales
        by the reference-to-board clock ratio.  For the reference board the
        ratio is exactly 1.0, so the result equals the fitted defaults
        bit-for-bit.
        """

        base = cls()
        scale = DEFAULT_BOARD.ps_clock_hz / board.ps_clock_hz
        return cls(
            clock_hz=board.ps_clock_hz,
            per_image_overhead_s=base.per_image_overhead_s * scale,
        )


class SoftwareCostModel:
    """Estimate software execution time of convolutional work on the PS part."""

    def __init__(self, config: PsModelConfig | None = None) -> None:
        self.config = config or PsModelConfig()

    def work_cycles(self, macs: float, elements: float = 0.0, passes: float = 0.0) -> float:
        """Clock-independent PS cycles of ``macs`` MACs plus element passes."""

        cfg = self.config
        return float(
            work_cycles_kernel(macs, elements, passes, cfg.cycles_per_mac, cfg.cycles_per_element)
        )

    def work_time(self, macs: float, elements: float = 0.0, passes: float = 0.0) -> float:
        """Seconds to execute ``macs`` MACs plus ``passes`` passes over ``elements``."""

        cfg = self.config
        return float(
            work_time_kernel(
                macs, elements, passes, cfg.cycles_per_mac, cfg.cycles_per_element, cfg.clock_hz
            )
        )

    def block_time(self, macs: float, out_elements: float, elementwise_passes: int) -> float:
        """Seconds for one building-block (or layer-group) execution."""

        return self.work_time(macs, out_elements, elementwise_passes)

    def per_image_overhead(self) -> float:
        """Fixed per-image software overhead in seconds."""

        return self.config.per_image_overhead_s
