"""Fleet conformance: fleet-of-one identity and shard-count invariance.

The two contracts that make the fleet layer trustworthy:

* a single-board fleet at ``fidelity="event"`` with admission off is
  *exactly* one ``repro.sim.simulate`` run — same latency distribution,
  same energy ledger, bit for bit;
* ``shards`` is an execution knob, never a scenario knob — any shard count
  yields a bit-identical merged report.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.fleet import (
    BoardGroup,
    FleetScenario,
    TrafficClass,
    run_cell,
    simulate_fleet,
)
from repro.sim import SimScenario, simulate
from repro.sim.metrics import latency_stats


def _trace(seed: int = 5, n: int = 120, span: float = 15.0) -> tuple:
    rng = np.random.default_rng(seed)
    return tuple(np.sort(rng.uniform(0.0, span, n)))


class TestFleetOfOneIdentity:
    def test_event_fidelity_reproduces_simulate(self):
        trace = _trace()
        fleet = FleetScenario(
            boards=(BoardGroup("PYNQ-Z2", 1),),
            classes=(TrafficClass("only"),),
            arrival="trace",
            trace=trace,
            seed=11,
            fidelity="event",
            admission="none",
            replicas=2,
        )
        fleet_report = simulate_fleet(fleet)
        single = SimScenario(
            board="PYNQ-Z2",
            arrival="trace",
            trace=trace,
            seed=11,
            replicas=2,
            ps_cores=0,
        )
        sim_report = simulate(single)

        # The merged distribution is the board's distribution, bit for bit,
        # and so is the energy ledger.
        assert fleet_report.latency == sim_report.latency
        assert fleet_report.wait == sim_report.wait
        assert fleet_report.energy == sim_report.energy
        assert fleet_report.requests["completed"] == sim_report.requests["completed"]
        assert fleet_report.requests["rejected"] == 0

        # And the one board's ledger is the SimReport's.
        (board,) = fleet_report.boards
        assert board["served"] == sim_report.requests["completed"]
        assert board["replicas_per_board"] == sim_report.scenario["replicas"]
        for key in ("ps_energy_J", "pl_energy_J", "total_energy_J"):
            assert board[key] == sim_report.energy[key]
        assert board["utilization"] == pytest.approx(
            sim_report.utilization["accelerator_mean"], rel=1e-12
        )
        assert board["powered_fraction"] == 1.0

    @pytest.mark.parametrize(
        "bound", [dict(n_requests=70), dict(duration_s=9.0)], ids=["n_requests", "duration_s"]
    )
    def test_truncated_trace_reproduces_simulate(self, bound):
        # A trace stops at n_requests / duration_s in the fleet as in simulate.
        trace = _trace()
        fleet = FleetScenario(
            boards=(BoardGroup("PYNQ-Z2", 1),),
            arrival="trace",
            trace=trace,
            seed=11,
            fidelity="event",
            admission="none",
            replicas=2,
            **bound,
        )
        single = SimScenario(
            board="PYNQ-Z2", arrival="trace", trace=trace, seed=11, replicas=2, ps_cores=0, **bound
        )
        fleet_report = simulate_fleet(fleet)
        sim_report = simulate(single)
        offered = sim_report.requests["offered"]
        assert offered < len(trace)
        assert fleet_report.requests["offered"] == offered
        assert fleet_report.latency == sim_report.latency
        assert fleet_report.wait == sim_report.wait
        assert fleet_report.energy == sim_report.energy
        assert simulate_fleet(fleet.replace(fidelity="fast")).requests["offered"] == offered

    def test_event_fidelity_carries_slo_through(self):
        trace = _trace(seed=9, n=60, span=5.0)
        fleet = FleetScenario(
            boards=(BoardGroup("PYNQ-Z2", 1),),
            arrival="trace",
            trace=trace,
            fidelity="event",
            admission="none",
            slo_s=0.001,  # impossible SLO: every completion violates
        )
        report = simulate_fleet(fleet)
        assert report.classes[0]["violations"] == report.requests["completed"]


class TestShardInvariance:
    @pytest.fixture(scope="class")
    def scenario(self) -> FleetScenario:
        return FleetScenario(
            boards=(BoardGroup("PYNQ-Z2", 3), BoardGroup("ZCU104", 2)),
            classes=(
                TrafficClass("interactive", weight=0.7),
                TrafficClass("bulk", weight=0.3, kind="batch"),
            ),
            arrival_rate_hz=30.0,
            n_requests=1200,
            cells=4,
            seed=7,
            autoscale=True,
            autoscale_interval_s=5.0,
        )

    def test_shards_never_change_the_numbers(self, scenario):
        r1 = simulate_fleet(scenario, shards=1)
        r4 = simulate_fleet(scenario, shards=4)
        d1, d4 = r1.as_dict(), r4.as_dict()
        assert d1.pop("shards") == 1
        assert d4.pop("shards") == 4
        assert json.dumps(d1, sort_keys=True) == json.dumps(d4, sort_keys=True)

    def test_cells_are_seeded_by_index_not_execution_order(self, scenario):
        # Run the cells out of order: each must produce its own stream.
        forward = [run_cell(scenario, c) for c in range(scenario.cells)]
        backward = [run_cell(scenario, c) for c in reversed(range(scenario.cells))]
        by_cell = {r.cell: r for r in backward}
        for r in forward:
            assert by_cell[r.cell].offered == r.offered
            assert by_cell[r.cell].completed == r.completed
            assert by_cell[r.cell].horizon_s == r.horizon_s

    def test_cells_change_the_numbers(self, scenario):
        # cells is a scenario knob: dealing the same inventory into a
        # different partition serves different requests on different boards.
        merged = simulate_fleet(scenario)
        single_cell = simulate_fleet(scenario.replace(cells=1))
        assert merged.as_dict()["requests"] != single_cell.as_dict()["requests"] or (
            merged.latency != single_cell.latency
        )

    def test_excess_shards_are_harmless(self, scenario):
        r = simulate_fleet(scenario, shards=16)
        assert r.requests["offered"] == 1200


class TestPastTheOldBuffer:
    """5,000 requests: more than the 4,096 samples the latency store once
    buffered before it binned them, so percentiles here are exact only
    because every sample is kept."""

    @pytest.fixture(scope="class")
    def scenario(self) -> FleetScenario:
        return FleetScenario(
            boards=(BoardGroup("PYNQ-Z2", 2), BoardGroup("ZCU104", 2)),
            classes=(
                TrafficClass("interactive", weight=0.7),
                TrafficClass("bulk", weight=0.3, kind="batch"),
            ),
            arrival_rate_hz=6.0,
            n_requests=5_000,
            admission="none",
            cells=2,
            seed=13,
        )

    def test_percentiles_are_exact_over_the_stored_samples(self, scenario):
        report = simulate_fleet(scenario)
        latency = report.latency_sketch.samples
        wait = report.wait_sketch.samples
        assert len(latency) == len(wait) == report.requests["completed"] == 5_000
        assert report.latency == latency_stats(latency)
        assert report.wait == latency_stats(wait)

    def test_samples_merge_class_by_class_in_cell_order(self, scenario):
        # A fixed concatenation order keeps the float64 mean bit-identical.
        cells = [run_cell(scenario, c) for c in range(scenario.cells)]
        expected = [
            v for ci in range(len(scenario.classes)) for r in cells
            for v in r.classes[ci].latency.samples
        ]
        assert list(simulate_fleet(scenario).latency_sketch.samples) == expected

    def test_shards_never_change_the_numbers(self, scenario):
        d1 = simulate_fleet(scenario, shards=1).as_dict()
        d2 = simulate_fleet(scenario, shards=2).as_dict()
        assert d1.pop("shards") == 1
        assert d2.pop("shards") == 2
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


class TestRequestConservation:
    def test_offered_splits_exactly_across_cells(self):
        scenario = FleetScenario(
            boards=(BoardGroup("PYNQ-Z2", 5),),
            n_requests=1003,
            cells=5,
            admission="none",
        )
        report = simulate_fleet(scenario)
        assert report.requests["offered"] == 1003
        assert report.requests["completed"] + report.requests["rejected"] == 1003

    def test_fast_fidelity_batch_never_rejected(self):
        scenario = FleetScenario(
            boards=(BoardGroup("PYNQ-Z2", 1),),
            classes=(TrafficClass("bulk", kind="batch"),),
            arrival_rate_hz=100.0,
            n_requests=500,
            admission="slo",
            seed=4,
        )
        report = simulate_fleet(scenario)
        assert report.requests["rejected"] == 0
        assert report.requests["completed"] == 500
