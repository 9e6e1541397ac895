"""The optimize subcommand: formats, JSON schema, exit-2 error surface."""

import json

import pytest

from repro.cli import main


def run_cli(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def run_cli_error(capsys, *argv) -> str:
    assert main(list(argv)) == 2
    return capsys.readouterr().err


BASE = ["optimize", "--objective", "board_price_usd",
        "--constraint", "meets_timing==1", "--n-units", "16", "32"]


class TestFormats:
    def test_table_sections(self, capsys):
        out = run_cli(capsys, *BASE)
        assert "Constrained search: min:board_price_usd" in out
        assert "[constraints] meets_timing==1" in out
        assert "[budget]" in out
        assert "[best]" in out
        assert "Fully evaluated candidates" in out

    def test_json_schema(self, capsys):
        payload = json.loads(run_cli(capsys, *BASE, "--format", "json"))
        assert set(payload) >= {
            "fidelity", "objective", "constraints", "seed", "space",
            "budget", "budget_spent", "evaluations", "best", "candidates",
        }
        assert payload["fidelity"] == "analytic"
        assert payload["objective"] == {"metric": "board_price_usd", "maximize": False}
        assert payload["best"]["values"]["board"]
        # One trace entry per candidate, each fully described.
        assert len(payload["candidates"]) == payload["space"]["size"]
        for record in payload["candidates"]:
            assert set(record) >= {"key", "values", "stage", "status", "cost", "metrics"}

    def test_csv_has_one_row_per_candidate(self, capsys):
        out = run_cli(capsys, *BASE, "--format", "csv")
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert {"status", "objective", "reason"} <= set(header)
        # 2 n_units x 4 registered boards (the default --boards is all).
        assert len(lines) == 1 + 8

    def test_json_flag_matches_format_json(self, capsys):
        a = json.loads(run_cli(capsys, *BASE, "--format", "json"))
        b = json.loads(run_cli(capsys, *BASE, "--json"))
        assert a == b


class TestErrors:
    def test_malformed_constraint_names_the_token(self, capsys):
        err = run_cli_error(
            capsys, "optimize", "--objective", "watts", "--constraint", "p99_ms<=fast",
        )
        assert "error:" in err
        assert "bad constraint 'p99_ms<=fast'" in err
        assert "'fast' is not a number" in err

    def test_constraint_without_operator(self, capsys):
        err = run_cli_error(
            capsys, "optimize", "--objective", "watts", "--constraint", "p99_ms",
        )
        assert "expected METRIC OP VALUE" in err

    def test_missing_objective(self, capsys):
        err = run_cli_error(capsys, "optimize")
        assert "--objective" in err

    def test_unknown_metric_for_fidelity(self, capsys):
        err = run_cli_error(capsys, "optimize", "--objective", "p99_ms")
        assert "unknown metric 'p99_ms'" in err
        assert "fidelity=analytic" in err

    @pytest.mark.parametrize(
        "axis,named", [(["--policies", "fifo", "batched"], "'policy'"),
                       (["--batch-sizes", "2", "8"], "'batch_size'")],
    )
    def test_fleet_fidelity_rejects_event_only_axes(self, capsys, axis, named):
        err = run_cli_error(
            capsys, "optimize", "--objective", "min:p99_ms", "--fidelity", "fleet",
            "--models", "rODENet-3", "--depths", "20", "--boards", "PYNQ-Z2", *axis,
        )
        assert named in err
        assert "fidelity=fleet" in err

    def test_fleet_fidelity_rejects_a_single_valued_event_only_axis(self, capsys):
        # A fleet has no dispatch policy at all: one value is refused too.
        err = run_cli_error(
            capsys, "optimize", "--objective", "min:p99_ms", "--fidelity", "fleet",
            "--models", "rODENet-3", "--depths", "20", "--boards", "PYNQ-Z2",
            "--policies", "fifo", "--requests", "20", "--budget", "1",
        )
        assert "'policy'" in err and "fidelity=fleet" in err

    def test_unknown_board_is_named(self, capsys):
        err = run_cli_error(
            capsys, "optimize", "--objective", "watts", "--boards", "DE10-Nano",
        )
        assert "DE10-Nano" in err


class TestInfeasible:
    def test_note_line_not_exception(self, capsys):
        out = run_cli(
            capsys, "optimize", "--objective", "watts",
            "--constraint", "latency_ms<=0.001",
        )
        assert "[note]" in out
        assert "no candidate satisfies the constraints" in out

    def test_infeasible_json_best_is_null(self, capsys):
        payload = json.loads(run_cli(
            capsys, "optimize", "--objective", "watts",
            "--constraint", "latency_ms<=0.001", "--format", "json",
        ))
        assert payload["best"] is None
        assert "note" in payload


class TestSimFidelity:
    def test_end_to_end_with_axes_and_traffic(self, capsys):
        payload = json.loads(run_cli(
            capsys, "optimize", "--objective", "min:p95_ms",
            "--fidelity", "sim", "--boards", "pynq-z2", "zcu104",
            "--n-units", "16", "32", "--arrivals", "deterministic",
            "--rate", "1", "--requests", "20", "--budget", "5",
            "--seed", "3", "--format", "json",
        ))
        assert payload["best"] is not None
        assert payload["budget_spent"] <= payload["budget"]
        assert payload["evaluations"] >= 1

    def test_seeded_cli_runs_are_byte_identical(self, capsys):
        argv = ["optimize", "--objective", "min:p95_ms", "--fidelity", "sim",
                "--boards", "pynq-z2", "--n-units", "16", "32",
                "--arrivals", "deterministic", "--rate", "1",
                "--requests", "20", "--seed", "8", "--format", "json"]
        assert run_cli(capsys, *argv) == run_cli(capsys, *argv)
