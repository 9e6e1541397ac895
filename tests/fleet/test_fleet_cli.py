"""Tests of the ``fleet`` CLI subcommand: sections, JSON schema, parse errors."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.fleet import (
    BoardGroup,
    FleetScenario,
    parse_board_groups,
    parse_traffic_classes,
    simulate_fleet,
)
from repro.platform import get_board
from repro.sim import SimScenario, simulate


def run_cli(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


BASE = (
    "fleet", "--boards", "pynq-z2:2,zcu104:1", "--rate", "20",
    "--requests", "300", "--seed", "3",
)


class TestFleetCommand:
    def test_table_output_has_sections(self, capsys):
        out = run_cli(capsys, *BASE)
        for token in (
            "[requests]", "[latency]", "[classes]", "[boards]", "[energy]",
            "[reproducibility]", "[engine]",
        ):
            assert token in out
        assert "2x PYNQ-Z2" in out
        assert "1x ZCU104" in out

    def test_json_output_schema(self, capsys):
        out = run_cli(capsys, *BASE, "--classes",
                      "interactive:0.8:latency:900ms,nightly:0.2:batch",
                      "--cells", "3", "--shards", "2", "--json")
        payload = json.loads(out)
        for key in (
            "scenario", "requests", "horizon_s", "throughput_rps", "latency",
            "wait", "classes", "boards", "energy", "cells", "shards",
            "events_processed",
        ):
            assert key in payload
        assert payload["cells"] == 3
        assert payload["shards"] == 2
        assert payload["requests"]["offered"] == 300
        assert (
            payload["requests"]["completed"] + payload["requests"]["rejected"] == 300
        )
        names = [c["name"] for c in payload["classes"]]
        assert names == ["interactive", "nightly"]
        assert payload["classes"][0]["slo_s"] == pytest.approx(0.9)
        assert payload["classes"][1]["kind"] == "batch"
        boards = {b["board"]: b for b in payload["boards"]}
        assert boards["PYNQ-Z2"]["count"] == 2
        assert boards["ZCU104"]["count"] == 1
        for key in ("ps_energy_J", "pl_energy_J", "total_energy_J"):
            assert payload["energy"][key] >= 0.0

    def test_format_json_equals_global_json(self, capsys):
        args = list(BASE)
        a = run_cli(capsys, *args, "--format", "json")
        b = run_cli(capsys, *args, "--json")
        assert json.loads(a) == json.loads(b)

    def test_autoscale_section_appears(self, capsys):
        out = run_cli(
            capsys, "fleet", "--boards", "pynq-z2:3", "--rate", "0.5",
            "--duration", "200", "--admission", "none", "--autoscale",
            "--autoscale-interval", "10",
        )
        assert "[autoscale]" in out
        assert "power-ups" in out

    def test_event_fleet_serves_every_request_on_its_boards(self, capsys):
        payload = json.loads(run_cli(
            capsys, "fleet", "--boards", "pynq-z2:2,zcu104:1", "--rate", "5",
            "--requests", "40", "--fidelity", "event", "--admission", "none", "--json",
        ))
        assert "board_reports" not in payload
        assert [(b["board"], b["count"]) for b in payload["boards"]] == [
            ("PYNQ-Z2", 2), ("ZCU104", 1)
        ]
        assert payload["requests"]["completed"] == 40
        assert sum(b["served"] for b in payload["boards"]) == 40


def _event_board_and_simulate(board: str, **knobs):
    """A one-board event fleet and the ``simulate`` run it must equal: the
    board's PS cores (``ps_cores=0``) and every other serving knob at the
    simulator's default."""

    trace = tuple(float(t) for t in np.sort(np.random.default_rng(3).uniform(0.0, 6.0, 40)))
    fleet = FleetScenario(
        boards=(BoardGroup(board, 1),), arrival="trace", trace=trace, admission="none",
        fidelity="event", **knobs,
    )
    single = SimScenario(board=board, arrival="trace", trace=trace, ps_cores=0, **knobs)
    return simulate_fleet(fleet), simulate(single)


class TestEventBoardKnobs:
    @pytest.mark.parametrize("board", ["PYNQ-Z2", "ZCU104"])
    def test_event_board_serves_as_simulate_with_default_dispatch(self, board):
        # ``ps_cores=0`` is every core of the board; policy, batch size and
        # DMA channels are SimScenario's defaults.
        fleet, single = _event_board_and_simulate(board, replicas=1)
        defaults = SimScenario()
        assert single.scenario["policy"] == defaults.policy
        assert single.scenario["batch_size"] == defaults.batch_size
        assert single.scenario["dma_channels"] == defaults.dma_channels
        assert single.scenario["ps_cores"] == get_board(board).ps_cores
        assert fleet.latency == single.latency
        assert fleet.wait == single.wait
        assert fleet.energy == single.energy
        # One routing decision per admitted request plus the simulator's events.
        assert fleet.events_processed == 40 + single.events_processed

    def test_event_board_copies_the_fleet_design(self):
        # The served architecture and seed are the fleet's own knobs.
        knobs = dict(model="rODENet-1", depth=20, n_units=8, seed=5, replicas=2)
        fleet, single = _event_board_and_simulate("PYNQ-Z2", **knobs)
        assert fleet.latency == single.latency
        assert fleet.energy == single.energy
        default, _ = _event_board_and_simulate("PYNQ-Z2", replicas=2)
        assert default.latency != fleet.latency

    def test_one_core_is_not_the_board_default(self):
        # The ZCU104's four PS cores matter under this load: with one core
        # simulate serves differently, so the identity above pins all four.
        fleet, _ = _event_board_and_simulate("ZCU104", replicas=1)
        trace = fleet.scenario["trace"]
        one_core = simulate(SimScenario(
            board="ZCU104", arrival="trace", trace=tuple(trace), replicas=1, ps_cores=1
        ))
        assert one_core.latency != fleet.latency


class TestFastFidelityKnobs:
    @pytest.mark.parametrize(
        "knob", [dict(policy="batched"), dict(batch_size=8), dict(dma_channels=4)]
    )
    def test_fast_fidelity_rejects_event_only_knobs(self, knob):
        # Neither fidelity's fleet has a dispatch policy, batch size or DMA
        # channel count to set: the name is refused, not silently ignored.
        (name,) = knob
        with pytest.raises(TypeError, match=name):
            FleetScenario(**knob)


class TestFleetCliErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("fleet", "--boards", "bogus:2"),
            ("fleet", "--boards", "pynq-z2:x"),
            ("fleet", "--boards", "pynq-z2", "--classes", "a:b"),
            ("fleet", "--boards", "pynq-z2", "--classes", "a:1:weird"),
            ("fleet", "--boards", "pynq-z2", "--replicas", "lots"),
            ("fleet", "--boards", "pynq-z2:2", "--cells", "3"),
            ("fleet", "--boards", "pynq-z2", "--rate", "-1"),
        ],
    )
    def test_bad_input_exits_2(self, capsys, argv):
        assert main(list(argv)) == 2
        err = capsys.readouterr().err
        assert "error:" in err


class TestParsers:
    def test_board_parser_counts_and_case(self):
        groups = parse_board_groups("pynq-z2:8, ZCU104:4,ultra96-v2")
        assert [(g.board, g.count) for g in groups] == [
            ("PYNQ-Z2", 8), ("ZCU104", 4), ("Ultra96-V2", 1),
        ]

    def test_class_parser_full_spec(self):
        classes = parse_traffic_classes("interactive:0.8:latency:50ms,nightly:0.2:batch")
        assert classes[0].name == "interactive"
        assert classes[0].slo_s == pytest.approx(0.05)
        assert classes[1].kind == "batch"
        assert classes[1].slo_s is None

    def test_class_parser_seconds(self):
        (cls,) = parse_traffic_classes("rt:1:latency:0.25")
        assert cls.slo_s == pytest.approx(0.25)

    def test_empty_specs_rejected(self):
        with pytest.raises(ValueError):
            parse_board_groups("  , ")
        with pytest.raises(ValueError):
            parse_traffic_classes(",")
