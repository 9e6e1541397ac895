"""Tests of the ``sim --faults`` FMEA path and the ``faults`` registry command."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def run_cli(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


BASE = (
    "sim", "rODENet-3", "--depth", "20", "--arrivals", "poisson",
    "--rate", "3", "--requests", "12", "--ps-cores", "2",
)


class TestFaultsRegistryCommand:
    def test_lists_every_registered_mode(self, capsys):
        out = run_cli(capsys, "faults")
        for kind in ("replica_death", "axi_degraded", "ps_core_loss",
                     "dma_corruption"):
            assert kind in out
        assert "KIND[:RATE[:PARAM]]" in out

    def test_json_output(self, capsys):
        records = json.loads(run_cli(capsys, "faults", "--json"))
        assert len(records) == 4
        assert all(r["default_rate_per_hour"] > 0 for r in records)


class TestSimFaults:
    def test_fmea_table_output(self, capsys):
        out = run_cli(
            capsys, *BASE, "--faults", "replica_death:60", "--fault-samples", "1",
        )
        assert "FMEA:" in out
        assert "replica_death" in out
        assert "total expected SLO-violation fraction" in out

    def test_fmea_json_schema(self, capsys):
        out = run_cli(
            capsys, *BASE, "--faults", "replica_death:60", "--fault-samples", "2",
            "--slo-ms", "600", "--json",
        )
        study = json.loads(out)
        for key in ("scenario", "slo_s", "nominal", "fmea", "samples",
                    "expected_slo_violation"):
            assert key in study
        assert study["slo_s"] == pytest.approx(0.6)
        (row,) = study["fmea"]
        assert row["mode"] == "replica_death"
        assert row["samples"] == 2
        assert len(study["samples"]) == 2
        assert study["nominal"]["requests"]["completed"] == 12
        # The injection metadata survives into each sample's fault log.
        assert study["nominal"]["reproducibility"]["seed"] == 0

    def test_bare_faults_flag_runs_the_default_domain(self, capsys):
        out = run_cli(
            capsys, *BASE, "--faults", "--fault-samples", "1", "--json",
        )
        study = json.loads(out)
        assert {row["mode"] for row in study["fmea"]} == {
            "replica_death", "axi_degraded", "ps_core_loss", "dma_corruption",
        }

    def test_zero_fault_cli_run_matches_the_plain_sim(self, capsys):
        # Same scenario, same explicit SLO: the nominal report inside the
        # FMEA payload must be byte-for-byte the plain sim payload.
        plain = json.loads(run_cli(capsys, *BASE, "--slo-ms", "600", "--json"))
        study = json.loads(run_cli(
            capsys, *BASE, "--slo-ms", "600", "--faults", "replica_death:0",
            "--json",
        ))
        assert study["nominal"] == plain
        assert study["expected_slo_violation"] == 0.0

    def test_csv_output(self, capsys):
        out = run_cli(
            capsys, *BASE, "--faults", "replica_death:60", "--fault-samples", "1",
            "--format", "csv",
        )
        header, row = out.strip().splitlines()
        assert header.split(",")[0] == "mode"
        assert row.split(",")[0] == "replica_death"


class TestErrors:
    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (list(BASE) + ["--faults", "gamma_ray"], "unknown fault mode"),
            (list(BASE) + ["--faults", "replica_death:fast"], "bad fault spec"),
            (list(BASE) + ["--faults", "a:1:2:3"], "bad fault spec"),
            (
                ["sim", "rODENet-3", "--depth", "20", "--requests", "4",
                 "--board", "PYNQ-Z2,ZCU104", "--faults"],
                "one board at a time",
            ),
            (list(BASE) + ["--faults", "replica_death", "--fault-samples", "0"], "n_samples"),
        ],
    )
    def test_bad_usage_exits_2(self, capsys, argv, fragment):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err and fragment in err
