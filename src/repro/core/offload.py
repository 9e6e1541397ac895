"""Offload planning: which layer group goes to the PL part, and does it fit?

Section 3.2 of the paper enumerates the feasible offload configurations on
the XC7Z020 (layer1 alone, layer2_2 alone, layer1+layer2_2 together, or
layer3_2 alone) and Section 4.4 pairs each evaluated architecture with its
offload target.  :class:`OffloadPlanner` reproduces this reasoning with the
resource and timing models: it proposes targets (the heavily-executed
ODEBlock layers), checks that the chosen conv_xN configuration fits the
device and closes timing, and reports the expected benefit via the
execution-time model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..fixedpoint.qformat import QFormat
from ..platform import PYNQ_Z2, BoardSpec, ResourceVector
from ..fpga.resources import ResourceEstimator
from ..fpga.timing import TimingModel
from .execution_model import ExecutionTimeModel, ExecutionTimeReport, PAPER_OFFLOAD_TARGETS
from .network_spec import OFFLOADABLE_LAYER_NAMES, layer_geometry
from .variants import variant_spec

__all__ = ["OffloadDecision", "OffloadPlanner"]


@dataclass(frozen=True)
class OffloadDecision:
    """Outcome of planning the PL offload for one architecture."""

    model: str
    depth: int
    targets: Tuple[str, ...]
    n_units: int
    resources: ResourceVector
    fits_device: bool
    meets_timing: bool
    expected_speedup: float


class OffloadPlanner:
    """Select and validate PL offload targets for an architecture."""

    def __init__(
        self,
        board: BoardSpec = PYNQ_Z2,
        n_units: int = 16,
        execution_model: Optional[ExecutionTimeModel] = None,
        qformat: Optional[QFormat] = None,
    ) -> None:
        self.board = board
        self.n_units = n_units
        if qformat is not None:
            self.resource_estimator = ResourceEstimator(board.fpga, qformat=qformat)
        else:
            self.resource_estimator = ResourceEstimator(board.fpga)
        self.timing_model = TimingModel(board)
        self.execution_model = execution_model or ExecutionTimeModel(board, n_units=n_units)

    # -- target selection -----------------------------------------------------------

    def proposed_targets(self, model_name: str, depth: int) -> Tuple[str, ...]:
        """Offload targets for a model.

        The paper's pairing (:data:`PAPER_OFFLOAD_TARGETS`) is used when the
        model name appears there (every Table 5 model); otherwise (ODENet) the
        heavily-executed ODEBlock layers that are offloadable are proposed.
        """

        if model_name in PAPER_OFFLOAD_TARGETS:
            return PAPER_OFFLOAD_TARGETS[model_name]
        spec = variant_spec(model_name, depth)
        return tuple(l for l in spec.heavily_used_layers() if l in OFFLOADABLE_LAYER_NAMES)

    # -- feasibility -------------------------------------------------------------------

    def resources_for_targets(self, targets: Sequence[str], n_units: Optional[int] = None) -> ResourceVector:
        """Total PL resources of implementing all targets simultaneously."""

        n = n_units if n_units is not None else self.n_units
        geoms = [layer_geometry(t).fpga_geometry() for t in targets]
        return self.resource_estimator.estimate_combination(geoms, n_units=n)

    def plan(
        self,
        model_name: str,
        depth: int,
        targets: Optional[Sequence[str]] = None,
        report: Optional[ExecutionTimeReport] = None,
    ) -> OffloadDecision:
        """Produce a full offload decision for one architecture at the
        planner's MAC-unit count.

        ``report`` lets a caller that already holds the execution-time
        report for the chosen targets (e.g. one with solver-stage scaling
        applied) supply it, so the expected speedup is taken from that
        report instead of recomputing.
        """

        n = self.n_units
        chosen = tuple(targets) if targets is not None else self.proposed_targets(model_name, depth)
        resources = self.resources_for_targets(chosen, n) if chosen else ResourceVector()
        fits = resources.fits(self.board.fpga) if chosen else True
        timing_ok = self.timing_model.analyze(n, target_hz=self.board.pl_clock_hz).meets_timing
        if report is None:
            # The expected speedup must reflect the requested parallelism,
            # which may differ from the execution model's default.
            report = self.execution_model.report(model_name, depth, offload_targets=chosen, n_units=n)
        return OffloadDecision(
            model=model_name,
            depth=depth,
            targets=chosen,
            n_units=n,
            resources=resources,
            fits_device=fits,
            meets_timing=timing_ok,
            expected_speedup=report.overall_speedup,
        )

    def max_feasible_parallelism(self, targets: Sequence[str]) -> int:
        """Largest conv_xN MAC-unit count (1 to 64) for which the targets fit
        and timing closes."""

        feasible = []
        max_channels = max(layer_geometry(t).fpga_geometry().out_channels for t in targets)
        for n in (1, 2, 4, 8, 16, 32, 64):
            if n > max_channels:
                continue
            if not self.timing_model.analyze(n, target_hz=self.board.pl_clock_hz).meets_timing:
                continue
            if not self.resources_for_targets(targets, n).fits(self.board.fpga):
                continue
            feasible.append(n)
        if not feasible:
            raise RuntimeError("no parallelism configuration is feasible for these targets")
        return max(feasible)
