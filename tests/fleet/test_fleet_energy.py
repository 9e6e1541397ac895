"""Fast vs event fidelity: one energy ledger for both fleet kernels.

The fidelities route on different signals (the fast kernel's slot heaps,
the event cell's live board state), so the cases below are ones where
routing is trivial: one-board fleets of each board type, and a fleet whose
two requests cannot share a board.  Both kernels then price each board
through ``sim.metrics`` (PS by mean core occupancy, every board powered for
the whole run).  Where both runs end at the same instant their energy
sections must agree to float rounding, even where their latencies do not;
a fast run that ends later is charged a longer idle tail.  Every case below
ends both runs together.
"""

from __future__ import annotations

import pytest

from repro.fleet import FleetScenario, parse_board_groups, run_cell, simulate_fleet


@pytest.mark.parametrize(
    "boards, rate, n_requests",
    [
        ("pynq-z2:1", 1.0, 300),
        ("zcu104:1", 1.0, 300),
        ("ultra96-v2:1", 1.0, 300),
        ("zybo-z7-20:1", 1.0, 300),
        # Two requests on three boards: one board never serves, yet it is
        # powered (and charged) for the whole run at both fidelities.
        ("pynq-z2:3", 2.0, 2),
    ],
)
def test_fast_and_event_energy_agree(boards, rate, n_requests):
    scenario = FleetScenario(
        boards=parse_board_groups(boards),
        admission="none",
        arrival_rate_hz=rate,
        n_requests=n_requests,
        seed=1,
    )
    fast = simulate_fleet(scenario)
    event = simulate_fleet(scenario.replace(fidelity="event"))
    assert fast.requests["completed"] == event.requests["completed"] == n_requests
    assert [b["served"] for b in fast.boards] == [b["served"] for b in event.boards]
    assert fast.horizon_s == pytest.approx(event.horizon_s, rel=1e-12)
    assert [b["powered_fraction"] for b in event.boards] == [1.0] * len(event.boards)
    assert fast.energy.keys() == event.energy.keys()
    for key, value in fast.energy.items():
        assert value == pytest.approx(event.energy[key], rel=1e-9), key


def test_the_idle_board_serves_nothing_at_either_fidelity():
    scenario = FleetScenario(
        boards=parse_board_groups("pynq-z2:3"), admission="none", arrival_rate_hz=2.0,
        n_requests=2, seed=1,
    )
    for fidelity in ("fast", "event"):
        cell = run_cell(scenario.replace(fidelity=fidelity), 0)
        assert [b.served for b in cell.boards] == [1, 1, 0], fidelity
        assert cell.boards[2].powered_seconds == cell.horizon_s
