"""Unit tests of the reactive autoscaler: bands, ordering, power accounting."""

from __future__ import annotations

import pytest

from repro.fleet import (
    AutoscaleController,
    Balancer,
    BoardGroup,
    BoardServer,
    FleetScenario,
    simulate_fleet,
)
from repro.fleet.autoscale import BOOT_S, HIGH, LOW, MIN_POWERED


def make_board(index: int = 0) -> BoardServer:
    return BoardServer(
        index=index, group=0, name="PYNQ-Z2", replicas=1,
        svc_s=1.0, ps_s=0.1, pl_w=2.0, ps_active_w=1.3, ps_idle_w=0.3,
        ps_cores=2,
    )


def controller(n_boards: int = 3) -> AutoscaleController:
    boards = [make_board(index=i) for i in range(n_boards)]
    return AutoscaleController(Balancer(boards, "least_loaded"), 10.0)


class TestPolicyValidation:
    def test_bands_must_be_ordered(self):
        assert 0.0 < LOW < HIGH <= 1.0
        assert BOOT_S >= 0.0

    def test_interval_positive(self):
        with pytest.raises(ValueError, match="interval"):
            FleetScenario(autoscale=True, autoscale_interval_s=0.0)

    def test_min_powered_positive(self):
        # A cell always keeps a board up to serve the next arrival.
        assert isinstance(MIN_POWERED, int) and MIN_POWERED >= 1


class TestController:
    def test_cold_window_powers_down_last_board(self):
        ctl = controller()
        ctl.tick(10.0)  # zero busy seconds: utilisation 0 < low
        assert ctl.powered_count == 2
        assert ctl.events[-1]["action"] == "down"
        assert ctl.events[-1]["board"] == 2  # last in inventory order
        assert not ctl.boards[2].powered

    def test_never_scales_below_min_powered(self):
        ctl = controller()
        for t in (10.0, 20.0, 30.0, 40.0):
            ctl.tick(t)
        assert ctl.powered_count == MIN_POWERED

    def test_hot_window_powers_up_first_unpowered(self):
        ctl = controller()
        ctl.boards[0].power_down(0.0)
        ctl.boards[1].power_down(0.0)
        # Saturate the one powered board's window.
        for _ in range(12):
            ctl.boards[2].assign(0.0)
        ctl.tick(10.0)
        assert ctl.events[-1]["action"] == "up"
        assert ctl.events[-1]["board"] == 0  # first unpowered in inventory order
        assert ctl.boards[0].powered

    def test_window_is_differential_not_cumulative(self):
        ctl = controller(n_boards=1)
        for _ in range(12):
            ctl.boards[0].assign(0.0)
        ctl.tick(10.0)  # hot window (nothing to power up — sole board)
        ctl.tick(20.0)  # the same busy seconds must not count twice
        assert ctl._last_busy == ctl.boards[0].busy_seconds
        ups = [e for e in ctl.events if e["action"] == "up"]
        assert not ups

    def test_summary_counts(self):
        ctl = controller()
        ctl.tick(10.0)
        ctl.tick(20.0)
        s = ctl.summary()
        assert s["power_downs"] == 2
        assert s["power_ups"] == 0
        assert s["final_powered"] == 1
        assert s["events"] == 2


class TestAutoscaleEndToEnd:
    def test_idle_fleet_scales_to_min_powered(self):
        report = simulate_fleet(
            FleetScenario(
                boards=(BoardGroup("PYNQ-Z2", 4),),
                arrival_rate_hz=0.2,
                duration_s=400.0,
                admission="none",
                autoscale=True,
                autoscale_interval_s=10.0,
                seed=1,
            )
        )
        assert report.autoscale is not None
        assert report.autoscale["power_downs"] >= 3
        assert report.autoscale["final_powered"] >= 1
        # Powered fraction strictly below 1: idle boards were switched off.
        assert report.boards[0]["powered_fraction"] < 1.0

    def test_autoscale_saves_energy_at_low_load(self):
        base = FleetScenario(
            boards=(BoardGroup("PYNQ-Z2", 4),),
            arrival_rate_hz=0.2,
            duration_s=400.0,
            admission="none",
            seed=1,
        )
        static = simulate_fleet(base)
        scaled = simulate_fleet(base.replace(autoscale=True, autoscale_interval_s=10.0))
        assert scaled.energy["total_energy_J"] < static.energy["total_energy_J"]

    def test_autoscale_requires_fast_fidelity(self):
        with pytest.raises(ValueError, match="fidelity='fast'"):
            FleetScenario(autoscale=True, fidelity="event")
