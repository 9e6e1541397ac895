"""Timing-closure model for the PL ODEBlock.

Section 3.1: "since only conv_x32 could not satisfy a timing constraint of
our target FPGA board (i.e., 100MHz), we mainly use conv_x16 in this paper."

The achievable clock frequency of the conv/ReLU datapath is modelled as the
reciprocal of a critical path consisting of a fixed logic delay (multiplier,
BRAM access, control) plus one adder-tree level per doubling of the MAC-unit
count.  The constants are chosen so that configurations up to conv_x16 close
timing at 100 MHz and conv_x32 does not — matching the paper's observation —
while remaining a smooth, monotone model usable in the parallelism ablation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable

import numpy as np

from ..platform import BoardSpec, DEFAULT_BOARD

__all__ = [
    "TimingModelConfig",
    "TimingReport",
    "TimingModel",
    "DEFAULT_TIMING_MODEL",
    "critical_path_ns_kernel",
    "fmax_hz_kernel",
    "slack_ns_kernel",
    "meets_timing_kernel",
]


@dataclass(frozen=True)
class TimingModelConfig:
    """Critical-path model constants."""

    #: Fixed delay of the MAC datapath (DSP48 multiply + BRAM read + control), ns.
    base_delay_ns: float = 5.0

    #: Additional delay per adder-tree level (log2 of the unit count), ns.
    per_level_delay_ns: float = 1.2

    #: Target clock used by the paper (default: the reference board's PL
    #: clock — the single source of truth is ``BoardSpec.pl_clock_hz``).
    target_clock_hz: float = DEFAULT_BOARD.pl_clock_hz

    @classmethod
    def for_board(cls, board: BoardSpec) -> "TimingModelConfig":
        """The critical-path model re-targeted at a board.

        Both delay constants scale by the board's ``fabric_delay_scale``
        (UltraScale+ fabrics switch faster than the 7-series the constants
        were calibrated on) and the target becomes the board's PL clock.
        The reference board's scale is exactly 1.0, so its config equals
        the calibrated defaults bit-for-bit.
        """

        base = cls()
        return cls(
            base_delay_ns=base.base_delay_ns * board.fabric_delay_scale,
            per_level_delay_ns=base.per_level_delay_ns * board.fabric_delay_scale,
            target_clock_hz=board.pl_clock_hz,
        )


# -- array-capable kernels ---------------------------------------------------------------
#
# The batch-evaluation engine (:mod:`repro.api.batch`) evaluates timing
# closure over whole ``n_units`` x clock axes at once.  The scalar
# :class:`TimingModel` methods delegate to the same kernels, so both paths
# execute the same IEEE-754 operations and agree bit-for-bit.


def critical_path_ns_kernel(n_units, base_delay_ns, per_level_delay_ns):
    """Critical-path delay: fixed datapath delay plus one adder-tree level
    per doubling of the MAC-unit count (``n_units`` may be an array)."""

    units = np.asarray(n_units, dtype=np.float64)
    levels = np.where(units > 1.0, np.log2(np.maximum(units, 1.0)), 0.0)
    return base_delay_ns + per_level_delay_ns * levels


def fmax_hz_kernel(critical_path_ns):
    """Maximum achievable clock frequency from the critical path."""

    return 1e9 / np.asarray(critical_path_ns, dtype=np.float64)


def slack_ns_kernel(critical_path_ns, target_hz):
    """Timing slack against a target clock (positive means closure)."""

    period = 1e9 / np.asarray(target_hz, dtype=np.float64)
    return period - np.asarray(critical_path_ns, dtype=np.float64)


def meets_timing_kernel(critical_path_ns, target_hz):
    """Boolean closure mask: the critical path fits inside the target period."""

    period = 1e9 / np.asarray(target_hz, dtype=np.float64)
    return np.asarray(critical_path_ns, dtype=np.float64) <= period


@dataclass(frozen=True)
class TimingReport:
    """Outcome of timing analysis for one parallelism configuration."""

    n_units: int
    critical_path_ns: float
    fmax_hz: float
    target_hz: float
    meets_timing: bool
    slack_ns: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "n_units": self.n_units,
            "critical_path_ns": self.critical_path_ns,
            "fmax_mhz": self.fmax_hz / 1e6,
            "target_mhz": self.target_hz / 1e6,
            "meets_timing": float(self.meets_timing),
            "slack_ns": self.slack_ns,
        }

    def __str__(self) -> str:
        """One-line closure summary (the CLI ``timing`` table row)."""

        verdict = "met" if self.meets_timing else "FAILED"
        return (
            f"conv_x{self.n_units}: critical path {self.critical_path_ns:.2f} ns, "
            f"fmax {self.fmax_hz / 1e6:.1f} MHz vs target {self.target_hz / 1e6:.1f} MHz "
            f"-> {verdict} (slack {self.slack_ns:+.2f} ns)"
        )


class TimingModel:
    """Estimate fmax and timing closure versus MAC-unit count."""

    def __init__(self, config: TimingModelConfig | None = None) -> None:
        self.config = config or TimingModelConfig()

    @classmethod
    def for_board(cls, board: BoardSpec) -> "TimingModel":
        """A timing model with the board's fabric scale and clock target."""

        return cls(TimingModelConfig.for_board(board))

    def critical_path_ns(self, n_units: int) -> float:
        """Critical-path delay of the conv datapath with ``n_units`` MAC units."""

        if n_units < 1:
            raise ValueError("n_units must be >= 1")
        return float(
            critical_path_ns_kernel(
                n_units, self.config.base_delay_ns, self.config.per_level_delay_ns
            )
        )

    def fmax_hz(self, n_units: int) -> float:
        """Maximum achievable clock frequency."""

        return float(fmax_hz_kernel(self.critical_path_ns(n_units)))

    def analyze(self, n_units: int, target_hz: float | None = None) -> TimingReport:
        """Full timing report against the target clock (default 100 MHz)."""

        target = target_hz if target_hz is not None else self.config.target_clock_hz
        if not 0 < target < math.inf:
            raise ValueError(f"target_hz must be positive and finite (got {target!r})")
        path = self.critical_path_ns(n_units)
        return TimingReport(
            n_units=n_units,
            critical_path_ns=path,
            fmax_hz=self.fmax_hz(n_units),
            target_hz=target,
            meets_timing=bool(meets_timing_kernel(path, target)),
            slack_ns=float(slack_ns_kernel(path, target)),
        )

    def analyze_batch(self, n_units, target_hz=None) -> Dict[str, np.ndarray]:
        """Timing closure over whole ``n_units`` / target-clock axes.

        Returns arrays (broadcast over the inputs) for the critical path,
        achievable frequency, slack and the closure mask — the column shapes
        the batch-evaluation engine consumes.  Element-for-element identical
        to :meth:`analyze` (same kernels in both paths).
        """

        units = np.asarray(n_units, dtype=np.int64)
        if units.size and units.min() < 1:
            raise ValueError("n_units must be >= 1")
        target = (
            np.asarray(target_hz, dtype=np.float64)
            if target_hz is not None
            else self.config.target_clock_hz
        )
        path = critical_path_ns_kernel(
            units, self.config.base_delay_ns, self.config.per_level_delay_ns
        )
        return {
            "critical_path_ns": path,
            "fmax_hz": fmax_hz_kernel(path),
            "slack_ns": slack_ns_kernel(path, target),
            "meets_timing": meets_timing_kernel(path, target),
        }

    def sweep(self, unit_counts: Iterable[int] = (1, 4, 8, 16, 32)) -> Dict[int, TimingReport]:
        """Timing reports for a sweep of MAC-unit counts."""

        return {n: self.analyze(n) for n in unit_counts}

    def max_units_meeting_timing(self, candidates: Iterable[int] = (1, 2, 4, 8, 16, 32, 64)) -> int:
        """Largest candidate unit count that closes timing at the target clock."""

        feasible = [n for n in candidates if self.analyze(n).meets_timing]
        if not feasible:
            raise RuntimeError("no candidate parallelism meets timing")
        return max(feasible)


#: Shared default instance (constants per the module docstring).
DEFAULT_TIMING_MODEL = TimingModel()
