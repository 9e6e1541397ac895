"""Tests of the ``fleet`` CLI subcommand: sections, JSON schema, parse errors."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.fleet import BoardGroup, FleetScenario, parse_board_groups, parse_traffic_classes
from repro.platform import get_board
from repro.sim import SimScenario


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

    def test_event_board_scenarios_inherit_serving_knobs_not_traffic(self, capsys):
        payload = json.loads(run_cli(
            capsys, "fleet", "--boards", "pynq-z2:2,zcu104:1", "--rate", "5",
            "--requests", "40", "--fidelity", "event", "--json",
        ))
        fleet = payload["scenario"]
        reports = payload["board_reports"]
        assert [r["scenario"]["board"] for r in reports] == ["PYNQ-Z2", "PYNQ-Z2", "ZCU104"]
        for report in reports:
            scenario = report["scenario"]
            assert scenario["seed"] == fleet["seed"]
            # Every board serves with all its PS cores; the report carries
            # the resolved count.
            assert scenario["ps_cores"] == get_board(scenario["board"]).ps_cores
            # Each board replays its assigned trace whole: the fleet's
            # offered-traffic knobs must not leak into it.
            assert scenario["arrival"] == "trace"
            assert scenario["n_requests"] is None
            assert scenario["duration_s"] is None
            assert scenario["arrival_rate_hz"] == SimScenario().arrival_rate_hz
            assert report["requests"]["offered"] == len(scenario["trace"])
        assert sum(r["requests"]["offered"] for r in reports) == 40

    def test_event_board_scenario_copies_every_serving_knob(self):
        fleet = FleetScenario(
            boards=(BoardGroup("PYNQ-Z2", 2),), arrival_rate_hz=3.0, n_requests=9,
            duration_s=50.0, n_units=8, seed=5, fidelity="event",
        )
        board = fleet.board_sim_scenario("PYNQ-Z2", (0.0, 0.5), replicas=1, slo_s=0.4)
        assert board == SimScenario(
            model=fleet.model, depth=fleet.depth, n_units=8, board="PYNQ-Z2", arrival="trace",
            trace=(0.0, 0.5), replicas=1, seed=5, ps_cores=0, slo_s=0.4,
        )


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

    def test_defaults_and_event_fidelity_accept_them(self):
        # An event-fidelity board serves with the simulator's defaults for
        # them and every PS core it has, the board the fast kernel prices.
        board = FleetScenario(fidelity="event").board_sim_scenario("PYNQ-Z2", (0.0,), 1)
        defaults = SimScenario()
        assert (board.policy, board.batch_size, board.dma_channels, board.ps_cores) == (
            defaults.policy, defaults.batch_size, defaults.dma_channels, 0
        )


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
