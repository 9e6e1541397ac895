"""The board axis: scenario validation, grid, batch==loop, PYNQ-Z2 goldens."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Evaluator, Scenario, scenario_grid, sweep, sweep_batch
from repro.platform import PYNQ_Z2, get_board, list_boards

ALL_BOARDS = list_boards()


class TestScenarioBoardKnob:
    @pytest.mark.parametrize("name", ALL_BOARDS)
    def test_every_registered_board_is_a_valid_scenario(self, name):
        s = Scenario(board=name)
        assert s.board_spec is get_board(name)
        assert s.pl_clock_hz == get_board(name).pl_clock_hz

    def test_unknown_board_raises_with_the_registered_list(self):
        # Satellite: mirror BramPlan.region()'s style — name the miss, list
        # what exists.
        with pytest.raises(ValueError) as err:
            Scenario(board="DE10-Nano")
        message = str(err.value)
        assert "unknown board 'DE10-Nano'" in message
        for name in ALL_BOARDS:
            assert name in message

    def test_pl_clock_override_still_works_per_board(self):
        s = Scenario(board="ZCU104", pl_clock_hz=150e6)
        assert s.board_spec.pl_clock_hz == 150e6
        assert s.board_spec.fpga is get_board("ZCU104").fpga

    def test_replace_board_rederives_a_defaulted_pl_clock(self):
        # Regression: replace(board=...) must not freeze the old board's
        # resolved clock into the copy (the cross-board sim comparison
        # depends on this).
        swapped = Scenario().replace(board="ZCU104")
        assert swapped.pl_clock_hz == get_board("ZCU104").pl_clock_hz

    def test_replace_board_keeps_an_explicit_pl_clock_override(self):
        swapped = Scenario(pl_clock_hz=50e6).replace(board="ZCU104")
        assert swapped.pl_clock_hz == 50e6

    def test_replace_board_with_explicit_clock_change(self):
        swapped = Scenario().replace(board="ZCU104", pl_clock_hz=75e6)
        assert swapped.pl_clock_hz == 75e6


class TestScenarioGridBoards:
    def test_boards_axis_is_innermost(self):
        grid = scenario_grid(
            models=("rODENet-3",), depths=(56,), n_units=(8, 16),
            boards=("PYNQ-Z2", "ZCU104"),
        )
        assert [(s.n_units, s.board) for s in grid] == [
            (8, "PYNQ-Z2"), (8, "ZCU104"), (16, "PYNQ-Z2"), (16, "ZCU104"),
        ]

    def test_boards_axis_conflicts_with_fixed_board(self):
        with pytest.raises(ValueError, match="boards"):
            scenario_grid(boards=("PYNQ-Z2",), board="PYNQ-Z2")

    def test_fixed_board_still_flows_through_common(self):
        grid = scenario_grid(models=("ResNet",), depths=(20,), board="Ultra96-V2")
        assert all(s.board == "Ultra96-V2" for s in grid)

    def test_default_grid_is_unchanged(self):
        assert scenario_grid(models=("rODENet-3",), depths=(20, 56)) == scenario_grid(
            models=("rODENet-3",), depths=(20, 56), boards=None
        )
        assert all(s.board == "PYNQ-Z2" for s in scenario_grid(models=("ResNet",)))


class TestCrossBoardConformance:
    """Satellite: batch engine vs scalar Evaluator, field-for-field."""

    def test_batch_equals_loop_over_a_multi_board_grid(self):
        grid = scenario_grid(
            models=("ResNet", "rODENet-1+2", "rODENet-3", "Hybrid-3"),
            depths=(20, 44, 56),
            n_units=(4, 16, 32),
            word_lengths=(32, 16),
            solvers=("euler", "rk4"),
            boards=ALL_BOARDS,
        )
        assert len(grid) >= 4 * len(ALL_BOARDS)
        loop = sweep(grid, Evaluator())
        batch = sweep_batch(grid)
        assert batch.to_results() == loop  # exact Result equality, every field

    def test_random_board_mix_equals_loop(self):
        rng = np.random.default_rng(7)
        grid = [
            Scenario(
                model="rODENet-3",
                depth=int(rng.choice([20, 32, 44, 56])),
                n_units=int(rng.choice([1, 8, 16, 64])),
                board=str(rng.choice(ALL_BOARDS)),
                pl_clock_hz=float(rng.choice([50e6, 100e6, 142e6, 200e6])),
                solver=str(rng.choice(["euler", "rk4"])),
            )
            for _ in range(60)
        ]
        loop = sweep(grid, Evaluator())
        batch = sweep_batch(grid)
        assert batch.to_results() == loop


class TestCrossBoardPhysics:
    """The board axis must produce *ordered* physics, not just numbers."""

    def test_faster_ps_clock_means_faster_software(self):
        ev = Evaluator()
        by_board = {
            name: ev.evaluate(Scenario(model="ResNet", depth=56, board=name))
            for name in ALL_BOARDS
        }
        clocks = {name: get_board(name).ps_clock_hz for name in ALL_BOARDS}
        times = {name: r.timing["total_wo_pl_s"] for name, r in by_board.items()}
        ranked_by_clock = sorted(ALL_BOARDS, key=lambda n: -clocks[n])
        ranked_by_time = sorted(ALL_BOARDS, key=lambda n: times[n])
        assert ranked_by_clock == ranked_by_time

    def test_bigger_fabric_fits_more(self):
        ev = Evaluator()
        # conv_x64 of layer3_2 overflows the XC7Z020 but not the ZU7EV.
        small = ev.evaluate(Scenario(n_units=64, board="PYNQ-Z2"))
        large = ev.evaluate(Scenario(n_units=64, board="ZCU104"))
        assert not small.resources["fits_device"]
        assert large.resources["fits_device"]
        assert large.resources["bram_pct"] < small.resources["bram_pct"]

    def test_accuracy_sweep_honors_the_board(self):
        # Regression: the Q-format frontier must price compute *and* DMA at
        # the board's PL clock and close timing with the board's fabric
        # scale (it used to mix the reference 100 MHz into both).
        from repro.api import accuracy_sweep

        kwargs = dict(formats=[(16, 8)], n_units=(16,), images=1)
        pynq = accuracy_sweep("layer3_2", **kwargs).points[0]
        zcu = accuracy_sweep("layer3_2", board=get_board("ZCU104"), **kwargs).points[0]
        assert zcu.transfer_s == pytest.approx(pynq.transfer_s / 2.0)  # 200 MHz DMA
        assert zcu.latency_s < pynq.latency_s
        assert zcu.meets_timing  # 0.5 fabric scale: 4.9 ns inside the 5 ns period
        assert zcu.fmax_mhz > pynq.fmax_mhz

    def test_pareto_fronts_grouped_by_board(self):
        grid = scenario_grid(
            models=("rODENet-3",), depths=(20, 56), n_units=(4, 8, 16),
            boards=ALL_BOARDS,
        )
        table = sweep_batch(grid)
        fronts = table.pareto_fronts("total_w_pl_s", "energy_with_pl_J")
        assert set(fronts) == set(ALL_BOARDS)
        for name, front in fronts.items():
            assert 1 <= len(front) <= len(grid) // len(ALL_BOARDS)
            assert all(s.board == name for s in front.scenarios)


#: The seed repository's default-scenario result, captured before the
#: platform refactor (rODENet-3-56, conv_x16, Q20, Euler, PYNQ-Z2).  Byte
#: identity here means every golden CLI capture stays byte-identical too.
PYNQ_GOLDEN = {
    "param_count": 156276,
    "param_bytes": 625104,
    "bram": 85.0,
    "dsp": 68.0,
    "lut": 10228.8,
    "ff": 4834.4,
    "bram_pct": 60.714285714285715,
    "total_wo_pl_s": 1.5485299593846151,
    "total_w_pl_s": 0.582851958153846,
    "overall_speedup": 2.656815230216443,
    "speedup_vs_resnet": 2.7453835233391666,
    "energy_without_pl_J": 2.0130889471999995,
    "energy_with_pl_J": 0.5438663264393845,
    "energy_ratio": 3.7014406837419163,
    "train_step_sw_s": 4.635751404307691,
    "train_step_offloaded_s": 1.7387174006153845,
    "epoch_hours_software": 64.38543617094015,
    "full_run_days_offloaded": 201.24043988603987,
}


class TestPynqGoldenRegression:
    """Satellite: the reference board's numbers are pinned bit-for-bit."""

    def test_default_scenario_matches_the_seed_exactly(self):
        flat = Evaluator().evaluate(Scenario()).flat_dict()
        for key, expected in PYNQ_GOLDEN.items():
            assert flat[key] == expected, f"{key}: {flat[key]!r} != {expected!r}"

    def test_batch_engine_matches_the_seed_exactly(self):
        table = sweep_batch([Scenario()])
        record = table.records()[0]
        for key, expected in PYNQ_GOLDEN.items():
            assert record[key] == expected, f"{key}: {record[key]!r} != {expected!r}"
