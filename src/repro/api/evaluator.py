"""The :class:`Evaluator`: ``Scenario -> Result`` in one call.

Historically every consumer hand-assembled the analytical models —
:class:`~repro.core.execution_model.ExecutionTimeModel`,
:class:`~repro.core.offload.OffloadPlanner`,
:class:`~repro.fpga.resources.ResourceEstimator`,
:class:`~repro.fpga.power.PowerModel` and
:class:`~repro.core.training_model.TrainingTimeModel` — separately.  The
evaluator owns that wiring: it lazily constructs each model the first time a
scenario needs it, shares instances across scenarios that agree on the
relevant knobs (board, clock, MAC units, Q-format), and memoizes the final
:class:`~repro.api.result.Result` per scenario.  Models and per-scenario
products live in one memo keyed by what they depend on.

The paper's tables and figures are built by :mod:`repro.analysis`; Table 5
reads its rows from :meth:`Evaluator.execution_report`.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple, TypeVar

from ..core.execution_model import ExecutionTimeModel, ExecutionTimeReport
from ..core.offload import OffloadDecision, OffloadPlanner
from ..core.parameter_model import variant_parameter_bytes, variant_parameter_count
from ..core.training_model import TrainingTimeModel
from ..fpga.power import PowerModel
from .result import Result
from .scenario import Scenario

__all__ = ["Evaluator"]

T = TypeVar("T")

#: ``training`` section keys that hold epoch/full-run projections (the CLI
#: rounds exactly these, mirroring the original ``training`` subcommand).
TRAINING_PROJECTION_KEYS: Tuple[str, ...] = (
    "epoch_hours_software",
    "epoch_hours_offloaded",
    "full_run_days_software",
    "full_run_days_offloaded",
    "step_speedup",
)

_MISSING = object()


class Evaluator:
    """Construct, memoize and query the analytical models per scenario."""

    def __init__(self) -> None:
        self._memo: Dict[Tuple, object] = {}

    def _memoized(self, key: Tuple, build: Callable[..., T], *args: object) -> T:
        """``build(*args)``, computed once per ``key``."""

        value = self._memo.get(key, _MISSING)
        if value is _MISSING:
            value = self._memo[key] = build(*args)
        return value

    # -- lazy model construction -----------------------------------------------------

    @staticmethod
    def _hw_key(kind: str, scenario: Scenario) -> Tuple:
        return (kind, scenario.board, scenario.pl_clock_hz, scenario.n_units)

    def _execution_model(self, scenario: Scenario) -> ExecutionTimeModel:
        return self._memoized(
            self._hw_key("execution_model", scenario),
            lambda: ExecutionTimeModel(scenario.board_spec, n_units=scenario.n_units),
        )

    def _planner(self, scenario: Scenario) -> OffloadPlanner:
        key = self._hw_key("planner", scenario) + (scenario.word_length, scenario.fraction_bits)
        return self._memoized(
            key,
            lambda: OffloadPlanner(
                board=scenario.board_spec,
                n_units=scenario.n_units,
                execution_model=self._execution_model(scenario),
                qformat=scenario.qformat,
            ),
        )

    def _power_model(self, scenario: Scenario) -> PowerModel:
        return self._memoized(
            self._hw_key("power_model", scenario),
            lambda: PowerModel(scenario.board_spec),
        )

    def _training_model(self, scenario: Scenario) -> TrainingTimeModel:
        return self._memoized(
            self._hw_key("training_model", scenario),
            lambda: TrainingTimeModel(execution_model=self._execution_model(scenario)),
        )

    # -- evaluation --------------------------------------------------------------------

    def evaluate(self, scenario: Scenario) -> Result:
        """Full structured result for one scenario (memoized per scenario)."""

        return self._memoized(("result", scenario), self._compute, scenario)

    def execution_report(self, scenario: Scenario) -> ExecutionTimeReport:
        """The Table-5 execution-time report underlying a scenario's result.

        Computed (and memoized) on its own, without building the energy or
        training sections — callers that only need timing (e.g. Table 5) pay
        only for timing.
        """

        return self._memoized(("report", scenario), self._execution_report, scenario)

    def _execution_report(self, scenario: Scenario) -> ExecutionTimeReport:
        targets = self._planner(scenario).proposed_targets(scenario.model, scenario.depth)
        return self._execution_model(scenario).report(
            scenario.model,
            scenario.depth,
            offload_targets=targets,
            solver_stages=scenario.solver_stages,
        )

    def offload_decision(self, scenario: Scenario) -> OffloadDecision:
        """The offload plan for a scenario (targets, resources, feasibility).

        Consistent with :meth:`evaluate`: the expected speedup comes from the
        same solver-aware execution report the result's timing section uses.
        """

        return self._memoized(("decision", scenario), self._offload_decision, scenario)

    def _offload_decision(self, scenario: Scenario) -> OffloadDecision:
        report = self.execution_report(scenario)
        return self._planner(scenario).plan(
            scenario.model,
            scenario.depth,
            targets=report.offload_targets,
            report=report,
        )

    def _resnet_baseline(self, scenario: Scenario) -> ExecutionTimeReport:
        """Software ResNet-N reference, shared across a depth's scenarios.

        Keyed without ``n_units``: a software-only report never touches the
        PL, so every parallelism scenario at one depth shares one baseline.
        """

        return self._memoized(
            ("baseline", scenario.board, scenario.pl_clock_hz, scenario.depth),
            lambda: self._execution_model(scenario).report(
                "ResNet", scenario.depth, offload_targets=(), solver_stages=1
            ),
        )

    def _compute(self, scenario: Scenario) -> Result:
        # One report serves the timing section, the energy comparison and the
        # offload decision's expected speedup (no duplicate model runs).
        report = self.execution_report(scenario)
        decision = self.offload_decision(scenario)
        resnet_baseline = self._resnet_baseline(scenario)

        parameters = self._parameters_section(scenario)
        resources = self._resources_section(scenario, decision)
        timing = self._timing_section(scenario, report, resnet_baseline)
        energy = self._power_model(scenario).compare_report(report, decision.resources)
        training = self._training_section(scenario)
        return Result(
            scenario=scenario,
            parameters=parameters,
            resources=resources,
            timing=timing,
            energy=energy,
            training=training,
        )

    # -- sections ----------------------------------------------------------------------

    def _parameters_section(self, scenario: Scenario) -> Dict[str, object]:
        section: Dict[str, object] = {
            "variant": scenario.variant,
            "qformat": scenario.qformat.name,
            "param_count": variant_parameter_count(scenario.variant, scenario.depth),
            # Parameter storage at the scenario's word length, so word-length
            # sweeps report the actual memory-footprint trade-off.
            "param_bytes": variant_parameter_bytes(
                scenario.variant,
                scenario.depth,
                bytes_per_param=scenario.qformat.bytes_per_value,
            ),
        }
        try:
            from ..analysis.accuracy_model import accuracy_model

            point = accuracy_model(scenario.variant, scenario.depth)
            section["accuracy_pct"] = point.accuracy_percent
            section["accuracy_stable"] = point.stable
        except KeyError:
            section["accuracy_pct"] = None
            section["accuracy_stable"] = None
        return section

    def _resources_section(
        self, scenario: Scenario, decision: OffloadDecision
    ) -> Dict[str, object]:
        section: Dict[str, object] = dict(decision.resources.as_dict())
        section.update(
            {
                f"{k}_pct": v
                for k, v in decision.resources.utilization(scenario.board_spec.fpga).items()
            }
        )
        section["targets"] = list(decision.targets)
        section["fits_device"] = decision.fits_device
        section["meets_timing"] = decision.meets_timing
        return section

    def _timing_section(
        self,
        scenario: Scenario,
        report: ExecutionTimeReport,
        resnet_baseline: ExecutionTimeReport,
    ) -> Dict[str, object]:
        section = report.as_dict()
        section["speedup_vs_resnet"] = (
            resnet_baseline.total_without_pl / report.total_with_pl
        )
        section["solver_stages"] = scenario.solver_stages
        return section

    def _training_section(self, scenario: Scenario) -> Dict[str, object]:
        model = self._training_model(scenario)
        report = model.report(scenario.model, scenario.depth)
        section = report.as_dict()
        section.update(model.epoch_table((scenario.model,), scenario.depth)[scenario.model])
        return section
