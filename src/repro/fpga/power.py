"""Power and energy model of the PS + PL system.

The paper motivates FPGAs as "an energy-efficient solution" for edge
machine-learning but does not report power numbers.  This module adds the
missing energy analysis so the repository can answer the natural follow-up
question — *does the offload also save energy, or only time?* — using
publicly documented figures.  The wattages live in each board's
:class:`~repro.platform.device.PowerProfile` (PS active/idle draw, PL
static power, per-DSP/per-BRAM dynamic coefficients at the board's default
PL clock); the kernels below read them from the profile they are given,
and :class:`PowerModel` takes its board's.

These constants are deliberately conservative estimates (documented, not
measured); the interesting outputs are the *ratios* between configurations,
which are dominated by the execution-time model that is calibrated to the
paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

from ..platform import BoardSpec, DEFAULT_BOARD, PowerProfile, ResourceVector

if TYPE_CHECKING:  # pragma: no cover - import-cycle guard
    from ..core.execution_model import ExecutionTimeReport

__all__ = [
    "EnergyEstimate",
    "PowerModel",
    "pl_power_kernel",
    "ps_energy_with_pl_kernel",
    "energy_without_pl_kernel",
]


# -- array-capable kernels ---------------------------------------------------------------
#
# The scalar methods of :class:`PowerModel` and the batch-evaluation engine
# (:mod:`repro.api.batch`) share these formulas; all inputs may be scalars or
# NumPy arrays.  ``power`` is a board's profile, or a profile whose fields
# are per-scenario arrays (the batch engine's board axis).


def pl_power_kernel(dsp, bram, power: PowerProfile):
    """Static + dynamic PL power for a set of active resources."""

    return (
        power.pl_static_w
        + power.pl_dynamic_base_w
        + power.pl_dynamic_per_dsp_w * dsp
        + power.pl_dynamic_per_bram_w * bram
    )


def ps_energy_with_pl_kernel(seconds, pl_busy_seconds, power: PowerProfile):
    """PS energy of an offloaded prediction (active while the PL is idle)."""

    ps_busy = seconds - pl_busy_seconds
    return power.ps_active_w * ps_busy + power.ps_idle_w * pl_busy_seconds


def energy_without_pl_kernel(seconds, power: PowerProfile):
    """Total energy of a pure-software prediction (PS busy throughout)."""

    return power.ps_active_w * seconds


@dataclass(frozen=True)
class EnergyEstimate:
    """Energy accounting of one prediction."""

    model: str
    depth: int
    seconds: float
    ps_energy_j: float
    pl_energy_j: float

    @property
    def total_energy_j(self) -> float:
        return self.ps_energy_j + self.pl_energy_j


class PowerModel:
    """Estimate per-prediction energy with and without the PL offload."""

    def __init__(self, board: BoardSpec = DEFAULT_BOARD) -> None:
        self.power = board.power

    # -- component powers ---------------------------------------------------------

    def pl_power_w(self, resources: ResourceVector) -> float:
        """Dynamic + static PL power for a given set of active resources."""

        return float(pl_power_kernel(resources.dsp, resources.bram, self.power))

    # -- per-prediction energy -------------------------------------------------------

    def energy_without_pl(self, report: "ExecutionTimeReport") -> EnergyEstimate:
        """Pure-software execution: the PS is busy for the whole prediction."""

        seconds = report.total_without_pl
        return EnergyEstimate(
            model=report.model,
            depth=report.depth,
            seconds=seconds,
            ps_energy_j=float(energy_without_pl_kernel(seconds, self.power)),
            pl_energy_j=0.0,
        )

    def energy_with_pl(self, report: "ExecutionTimeReport", resources: ResourceVector) -> EnergyEstimate:
        """Offloaded execution.

        While the PL runs the offloaded layer the PS idles (the prediction
        flow of the paper is sequential), and the PL consumes static +
        dynamic power for the whole prediction because its clock keeps
        running.
        """

        seconds = report.total_with_pl
        pl_busy = sum(report.target_with_pl)
        ps_energy = float(ps_energy_with_pl_kernel(seconds, pl_busy, self.power))
        pl_energy = self.pl_power_w(resources) * seconds
        return EnergyEstimate(
            model=report.model,
            depth=report.depth,
            seconds=seconds,
            ps_energy_j=ps_energy,
            pl_energy_j=pl_energy,
        )

    def compare_report(self, report: "ExecutionTimeReport", resources: ResourceVector) -> Dict[str, float]:
        """Energy comparison for an already-computed execution-time report.

        Lets callers that have a report in hand (e.g. the scenario evaluator)
        reuse it instead of re-deriving the Table-5 row.
        """

        without = self.energy_without_pl(report)
        with_pl = self.energy_with_pl(report, resources)
        return {
            "model": report.model,
            "N": report.depth,
            "energy_without_pl_J": without.total_energy_j,
            "energy_with_pl_J": with_pl.total_energy_j,
            "energy_ratio": without.total_energy_j / with_pl.total_energy_j if with_pl.total_energy_j else float("inf"),
            "time_speedup": report.overall_speedup,
        }
