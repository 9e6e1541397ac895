"""Each fidelity's declared metric names match the keys its extractor returns.

``METRICS_FOR_FIDELITY`` is what ``optimize`` validates objectives and
constraints against; the extractors are what evaluations actually produce.
Structural metrics ride along from the screen at every fidelity.
"""

import pytest

from repro.api import Evaluator
from repro.fleet import BoardGroup, FleetScenario, simulate_fleet
from repro.opt import SearchSpace
from repro.opt.refine import _evaluate_scenario, _fleet_metrics, _sim_metrics
from repro.opt.screen import (
    METRICS_FOR_FIDELITY,
    STRUCTURAL_METRICS,
    analytic_metrics,
    screen_space,
)
from repro.sim import SimScenario, simulate

SERVED = dict(model="rODENet-3", depth=20, arrival="deterministic", arrival_rate_hz=2.0)


def declared(fidelity: str) -> set:
    return set(METRICS_FOR_FIDELITY[fidelity])


def test_analytic_names_match_the_screen_row():
    space = SearchSpace(axes={"n_units": [8, 16]})
    table, _ = screen_space(space, space.candidates())
    assert set(analytic_metrics(table, 0)) == declared("analytic")


@pytest.mark.parametrize("slo_s", [None, 1.0])
def test_sim_names_match_the_extractor(slo_s):
    report = simulate(SimScenario(**SERVED, n_requests=6, slo_s=slo_s))
    names = set(STRUCTURAL_METRICS) | set(_sim_metrics(report))
    # Without an SLO there is no violation fraction to report.
    expected = declared("sim") - ({"slo_violation_fraction"} if slo_s is None else set())
    assert names == expected


def test_fleet_names_match_the_extractor():
    fleet = FleetScenario(boards=(BoardGroup("PYNQ-Z2", 2),), **SERVED, n_requests=10)
    names = set(STRUCTURAL_METRICS) | set(_fleet_metrics(simulate_fleet(fleet)))
    assert names == declared("fleet")


def test_faults_names_match_the_extractor():
    from repro.faults import parse_fault_specs

    scenario = SimScenario(**SERVED, n_requests=6, slo_s=1.0)
    metrics = _evaluate_scenario(
        "faults", Evaluator(), parse_fault_specs(["replica_death"]), scenario, 0
    )
    assert set(STRUCTURAL_METRICS) | set(metrics) == declared("faults")
