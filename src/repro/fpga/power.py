"""Power and energy model of the PS + PL system.

The paper motivates FPGAs as "an energy-efficient solution" for edge
machine-learning but does not report power numbers.  This module adds the
missing energy analysis so the repository can answer the natural follow-up
question — *does the offload also save energy, or only time?* — using
publicly documented figures.  The wattages live in each board's
:class:`~repro.platform.device.PowerProfile` (PS active/idle draw, PL
static power, per-DSP/per-BRAM dynamic coefficients at the board's default
PL clock); :class:`PowerModelConfig` defaults to the reference PYNQ-Z2's
profile and :meth:`PowerModelConfig.for_board` rebinds any registered
board's.

These constants are deliberately conservative estimates (documented, not
measured); the interesting outputs are the *ratios* between configurations,
which are dominated by the execution-time model that is calibrated to the
paper.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from ..platform import BoardSpec, DEFAULT_BOARD
from ..platform import ResourceVector

if TYPE_CHECKING:  # pragma: no cover - import-cycle guard (lazy import at runtime)
    from ..core.execution_model import ExecutionTimeModel, ExecutionTimeReport

__all__ = [
    "PowerModelConfig",
    "EnergyEstimate",
    "PowerModel",
    "pl_power_kernel",
    "ps_energy_with_pl_kernel",
    "energy_without_pl_kernel",
]


@dataclass(frozen=True)
class PowerModelConfig:
    """Power constants (watts) of the PS + PL system.

    The defaults come from the reference board's
    :class:`~repro.platform.device.PowerProfile`; use :meth:`for_board` for
    any other platform — board wattages live in :mod:`repro.platform`, not
    here.
    """

    ps_active_w: float = DEFAULT_BOARD.power.ps_active_w
    ps_idle_w: float = DEFAULT_BOARD.power.ps_idle_w
    pl_static_w: float = DEFAULT_BOARD.power.pl_static_w
    pl_dynamic_per_dsp_w: float = DEFAULT_BOARD.power.pl_dynamic_per_dsp_w
    pl_dynamic_per_bram_w: float = DEFAULT_BOARD.power.pl_dynamic_per_bram_w
    pl_dynamic_base_w: float = DEFAULT_BOARD.power.pl_dynamic_base_w

    @classmethod
    def for_board(cls, board: BoardSpec) -> "PowerModelConfig":
        """The power constants of a board's documented profile.

        Field names are shared with :class:`~repro.platform.device
        .PowerProfile` one-for-one and must stay in sync: a coefficient
        added to the profile needs a matching field here (the ``**asdict``
        expansion raises a TypeError at the first evaluation otherwise,
        so drift cannot pass silently).
        """

        return cls(**dataclasses.asdict(board.power))


# -- array-capable kernels ---------------------------------------------------------------
#
# The scalar methods of :class:`PowerModel` and the batch-evaluation engine
# (:mod:`repro.api.batch`) share these formulas; all inputs may be scalars or
# NumPy arrays.


def pl_power_kernel(dsp, bram, config: PowerModelConfig):
    """Static + dynamic PL power for a set of active resources."""

    return (
        config.pl_static_w
        + config.pl_dynamic_base_w
        + config.pl_dynamic_per_dsp_w * dsp
        + config.pl_dynamic_per_bram_w * bram
    )


def ps_energy_with_pl_kernel(seconds, pl_busy_seconds, config: PowerModelConfig):
    """PS energy of an offloaded prediction (active while the PL is idle)."""

    ps_busy = seconds - pl_busy_seconds
    return config.ps_active_w * ps_busy + config.ps_idle_w * pl_busy_seconds


def energy_without_pl_kernel(seconds, config: PowerModelConfig):
    """Total energy of a pure-software prediction (PS busy throughout)."""

    return config.ps_active_w * seconds


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

    @property
    def average_power_w(self) -> float:
        return self.total_energy_j / self.seconds if self.seconds else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "model": self.model,
            "N": self.depth,
            "seconds": self.seconds,
            "ps_energy_J": self.ps_energy_j,
            "pl_energy_J": self.pl_energy_j,
            "total_energy_J": self.total_energy_j,
            "average_power_W": self.average_power_w,
        }


class PowerModel:
    """Estimate per-prediction energy with and without the PL offload."""

    def __init__(
        self,
        config: Optional[PowerModelConfig] = None,
        execution_model: Optional["ExecutionTimeModel"] = None,
        board: Optional[BoardSpec] = None,
    ) -> None:
        # Imported lazily to avoid a circular import with repro.core.
        from ..core.execution_model import ExecutionTimeModel

        if config is None:
            config = PowerModelConfig.for_board(board) if board is not None else PowerModelConfig()
        self.config = config
        self.execution_model = execution_model or ExecutionTimeModel(board or DEFAULT_BOARD)

    # -- component powers ---------------------------------------------------------

    def pl_power_w(self, resources: ResourceVector) -> float:
        """Dynamic + static PL power for a given set of active resources."""

        return float(pl_power_kernel(resources.dsp, resources.bram, self.config))

    # -- per-prediction energy -------------------------------------------------------

    def energy_without_pl(self, report: "ExecutionTimeReport") -> EnergyEstimate:
        """Pure-software execution: the PS is busy for the whole prediction."""

        seconds = report.total_without_pl
        return EnergyEstimate(
            model=report.model,
            depth=report.depth,
            seconds=seconds,
            ps_energy_j=float(energy_without_pl_kernel(seconds, self.config)),
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
        ps_energy = float(ps_energy_with_pl_kernel(seconds, pl_busy, self.config))
        pl_energy = self.pl_power_w(resources) * seconds
        return EnergyEstimate(
            model=report.model,
            depth=report.depth,
            seconds=seconds,
            ps_energy_j=ps_energy,
            pl_energy_j=pl_energy,
        )

    def compare(self, model_name: str, depth: int, resources: ResourceVector) -> Dict[str, float]:
        """Energy with vs without the PL offload for one architecture."""

        report = self.execution_model.report(model_name, depth)
        return self.compare_report(report, resources)

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
