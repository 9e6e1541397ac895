"""Tests of the ``sim`` CLI subcommand."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def run_cli(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestSimCommand:
    def test_table_output_has_sections(self, capsys):
        out = run_cli(
            capsys, "sim", "rODENet-3", "--depth", "20", "--arrivals", "deterministic",
            "--rate", "2", "--requests", "5",
        )
        for token in ("[requests]", "[latency]", "[utilization]", "[energy]"):
            assert token in out
        assert "offered            : 5" in out

    def test_json_output_schema(self, capsys):
        out = run_cli(
            capsys, "sim", "rODENet-3", "--depth", "20", "--arrivals", "poisson",
            "--rate", "3", "--requests", "10", "--replicas", "2", "--json",
        )
        payload = json.loads(out)
        for key in ("scenario", "requests", "latency", "utilization", "energy",
                    "throughput_rps", "horizon_s"):
            assert key in payload
        assert payload["requests"]["completed"] == 10
        assert payload["scenario"]["replicas"] == 2

    def test_format_json_equals_global_json(self, capsys):
        args = ["sim", "rODENet-3", "--depth", "20", "--requests", "5", "--seed", "1"]
        a = run_cli(capsys, *args, "--format", "json")
        b = run_cli(capsys, *args, "--json")
        assert json.loads(a) == json.loads(b)

    def test_csv_output(self, capsys):
        out = run_cli(
            capsys, "sim", "rODENet-3", "--depth", "20", "--requests", "5",
            "--format", "csv",
        )
        header, row = out.strip().splitlines()
        assert len(header.split(",")) == len(row.split(","))
        assert "latency_p95_s" in header

    def test_auto_replicas(self, capsys):
        # layer1's small footprint fits twice on the XC7Z020.
        out = run_cli(
            capsys, "sim", "rODENet-1", "--depth", "20", "--requests", "4",
            "--n-units", "1", "--replicas", "auto", "--json",
        )
        payload = json.loads(out)
        assert payload["scenario"]["replicas"] >= 2

    def test_duration_only_run_is_not_capped_at_the_default(self, capsys):
        out = run_cli(
            capsys, "sim", "rODENet-1", "--depth", "20", "--arrivals", "poisson",
            "--rate", "60", "--duration", "2", "--replicas", "2", "--ps-cores", "2",
            "--json",
        )
        payload = json.loads(out)
        assert payload["requests"]["offered"] > 100

    def test_long_trace_is_not_truncated(self, capsys):
        trace = [str(round(0.05 * i, 2)) for i in range(110)]
        out = run_cli(
            capsys, "sim", "rODENet-1", "--depth", "20", "--arrivals", "trace",
            "--trace", *trace, "--replicas", "2", "--ps-cores", "2", "--json",
        )
        payload = json.loads(out)
        assert payload["requests"]["offered"] == 110

    def test_trace_arrivals(self, capsys):
        out = run_cli(
            capsys, "sim", "rODENet-3", "--depth", "20", "--arrivals", "trace",
            "--trace", "0.0", "0.5", "1.5", "--json",
        )
        payload = json.loads(out)
        assert payload["requests"]["offered"] == 3

    def test_mix_requests(self, capsys):
        out = run_cli(
            capsys, "sim", "rODENet-3", "--depth", "56", "--requests", "6",
            "--mix", "rODENet-3:56", "rODENet-1:20:0.5", "--seed", "3", "--json",
        )
        payload = json.loads(out)
        assert payload["requests"]["completed"] == 6

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["sim", "rODENet-3", "--replicas", "many"], "--replicas"),
            (["sim", "rODENet-3", "--arrivals", "trace"], "trace"),
            (["sim", "rODENet-3", "--rate", "0"], "arrival_rate_hz"),
            (["sim", "rODENet-3", "--mix", "bogus"], "--mix"),
            (["sim", "rODENet-3", "--ps-cores", "many"], "--ps-cores"),
            (["fleet", "--replicas", "many"], "--replicas"),
        ],
    )
    def test_bad_arguments_exit_cleanly(self, capsys, argv, fragment):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err and fragment in err
