"""Tests for the repro-odenet command-line interface."""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main, registered_commands

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Golden capture name -> argv.  The default invocation of each pre-registry
#: subcommand was captured from the seed CLI (byte-identical port guarantee);
#: the flagged table/figure/timing invocations pin their options the same way,
#: and the sim / FMEA / fleet captures pin the serving-report renderers.
GOLDEN_INVOCATIONS = {
    "table1": ["table1"],
    "table2": ["table2"],
    "table3": ["table3"],
    "table4": ["table4"],
    "table5": ["table5"],
    "figure5": ["figure5"],
    "figure6": ["figure6"],
    "offload": ["offload", "rODENet-3"],
    "energy": ["energy", "rODENet-3"],
    "training": ["training"],
    "table3_no_estimates": ["table3", "--no-estimates"],
    "table5_depth32_n8": ["table5", "--depth", "32", "--n-units", "8"],
    "figure6_paper_only": ["figure6", "--paper-only"],
    "figure6_points": ["figure6", "--points"],
    "timing": ["timing"],
    "timing_zcu104_n32_50mhz": ["timing", "--n-units", "32", "--clock-mhz", "50", "--board", "ZCU104"],
    "sim_batched_rate8": [
        "sim", "rODENet-3", "--depth", "20", "--replicas", "2", "--policy", "batched",
        "--ps-cores", "2", "--rate", "8", "--requests", "200", "--seed", "1",
    ],
    "sim_warmup_slo": [
        "sim", "rODENet-1", "--depth", "20", "--rate", "3", "--requests", "50",
        "--warmup", "5", "--slo-ms", "900",
    ],
    "sim_fmea": [
        "sim", "rODENet-3", "--depth", "20", "--replicas", "2", "--rate", "2", "--requests", "40",
        "--faults", "replica_death", "dma_corruption", "--fault-samples", "2",
    ],
    # The two contended policies no other golden covers; deterministic
    # arrivals are where exact event-time ties are most likely.
    "sim_round_robin_rate8": [
        "sim", "rODENet-3", "--depth", "20", "--replicas", "2", "--policy", "round_robin",
        "--rate", "8", "--requests", "300",
    ],
    "sim_fifo_deterministic_rate8": [
        "sim", "rODENet-3", "--depth", "20", "--arrivals", "deterministic", "--policy", "fifo",
        "--replicas", "2", "--rate", "8", "--requests", "200",
    ],
    "fleet_classes_autoscale": [
        "fleet", "--boards", "pynq-z2:4,zcu104:2",
        "--classes", "interactive:0.8:latency:50ms,nightly:0.2:batch",
        "--requests", "500", "--rate", "20", "--autoscale", "--autoscale-interval", "5",
    ],
    "fleet_event_one_board": [
        "fleet", "--boards", "pynq-z2:1", "--fidelity", "event", "--admission", "none",
        "--requests", "100", "--rate", "1",
    ],
}


def run_cli(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_depth(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table4", "--depth", "21"])

    def test_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["offload", "VGG"])


class TestTableCommands:
    def test_table1(self, capsys):
        out = run_cli(capsys, "table1")
        assert "PYNQ-Z2" in out and "650MHz" in out

    def test_table2(self, capsys):
        out = run_cli(capsys, "table2")
        assert "layer3_2" in out and "300.54" in out

    def test_table3_with_and_without_estimates(self, capsys):
        with_estimates = run_cli(capsys, "table3")
        assert "model_lut" in with_estimates
        without = run_cli(capsys, "table3", "--no-estimates")
        assert "model_lut" not in without

    def test_table4_depth(self, capsys):
        out = run_cli(capsys, "table4", "--depth", "20")
        assert "1 / 6" in out  # rODENet-3 layer3_2 at N=20

    def test_table5_single_depth(self, capsys):
        out = run_cli(capsys, "table5", "--depth", "56")
        assert "rODENet-3" in out and "2.66" in out

    def test_table5_parallelism_option(self, capsys):
        out = run_cli(capsys, "table5", "--depth", "56", "--n-units", "1")
        assert "2.66" not in out  # conv_x1 cannot reach the headline speedup


class TestFigureCommands:
    def test_figure5(self, capsys):
        out = run_cli(capsys, "figure5")
        assert "ResNet" in out and "rODENet-1+2" in out

    def test_figure6_default_and_paper_only(self, capsys):
        full = run_cli(capsys, "figure6")
        assert "68.02" in full
        paper_only = run_cli(capsys, "figure6", "--paper-only")
        assert "rODENet-1" not in paper_only

    def test_figure6_points_listing(self, capsys):
        out = run_cli(capsys, "figure6", "--points")
        assert "estimated" in out and "paper" in out


class TestDesignCommands:
    def test_offload(self, capsys):
        out = run_cli(capsys, "offload", "rODENet-3", "--depth", "56")
        assert "layer3_2" in out
        assert "2.66x" in out
        assert "True" in out

    def test_energy(self, capsys):
        out = run_cli(capsys, "energy", "rODENet-3", "--depth", "56")
        assert "energy_ratio" in out

    def test_training(self, capsys):
        out = run_cli(capsys, "training", "--depth", "56", "--models", "ResNet", "rODENet-3")
        assert "step_speedup" in out
        assert "rODENet-3" in out


class TestGoldenOutputs:
    """The registry port must not change any pre-existing default output."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_INVOCATIONS))
    def test_byte_identical_with_seed(self, capsys, name):
        golden = (GOLDEN_DIR / f"{name}.txt").read_text()
        assert run_cli(capsys, *GOLDEN_INVOCATIONS[name]) == golden


class TestRegistry:
    def test_every_command_is_registered_and_parseable(self):
        commands = registered_commands()
        parser = build_parser()
        for name, cmd in commands.items():
            assert cmd.name == name
            assert callable(cmd.handler)
            # Round-trip: the parser accepts each registered subcommand.
            argv = GOLDEN_INVOCATIONS.get(name, [name])
            args = parser.parse_args(argv)
            assert args.command == name
            assert hasattr(args, "json")

    def test_all_nine_seed_commands_present_plus_new_ones(self):
        names = set(registered_commands())
        assert {argv[0] for argv in GOLDEN_INVOCATIONS.values()} <= names
        assert {"eval", "sweep"} <= names

    def test_duplicate_registration_rejected(self):
        from repro.cli import command

        with pytest.raises(ValueError, match="duplicate"):
            command("table1")(lambda args, ev: None)

    def test_module_docstring_lists_every_command(self):
        import repro.cli

        for name in registered_commands():
            assert f"\n{name} " in repro.cli.__doc__, name


def _flag_surface(name: str) -> list:
    """A subcommand's argv contract: every action but its help text."""

    parser = argparse.ArgumentParser()
    configure = registered_commands()[name].configure
    if configure is not None:
        configure(parser)
    return [
        {
            "option_strings": list(action.option_strings) or [action.dest],
            "nargs": action.nargs,
            "default": action.default,
            "choices": None if action.choices is None else list(action.choices),
            "type": None if action.type is None else action.type.__name__,
            "action": type(action).__name__,
            "metavar": action.metavar,
            "required": action.required,
            "const": action.const,
        }
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
    ]


class TestFlagContract:
    """Flags, defaults and choices stay what ``golden/cli_flags.json`` pins."""

    GOLDEN = json.loads((GOLDEN_DIR / "cli_flags.json").read_text())

    def test_every_subcommand_is_pinned(self):
        assert set(self.GOLDEN) == set(registered_commands())

    @pytest.mark.parametrize("name", sorted(registered_commands()))
    def test_flag_surface_matches_golden(self, name):
        assert json.loads(json.dumps(_flag_surface(name))) == self.GOLDEN[name]

    @pytest.mark.parametrize("name", sorted(registered_commands()))
    def test_help_lists_every_flag(self, capsys, name):
        with pytest.raises(SystemExit) as excinfo:
            main([name, "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for entry in self.GOLDEN[name]:
            if entry["option_strings"][0].startswith("-"):
                assert entry["option_strings"][0] in out
        assert "--json" in out


class TestJsonFlag:
    @pytest.mark.parametrize("name", sorted(GOLDEN_INVOCATIONS))
    def test_json_output_parses_for_every_command(self, capsys, name):
        out = run_cli(capsys, *GOLDEN_INVOCATIONS[name], "--json")
        json.loads(out)

    def test_offload_json_is_full_result(self, capsys):
        data = json.loads(run_cli(capsys, "offload", "rODENet-3", "--json"))
        assert data["scenario"]["model"] == "rODENet-3"
        assert data["resources"]["fits_device"] is True
        assert data["timing"]["overall_speedup"] == pytest.approx(2.66, abs=0.01)


#: One small ``--json`` invocation per subcommand ("{tmp}" = a scratch dir).
STRICT_JSON_INVOCATIONS = {
    **GOLDEN_INVOCATIONS,
    "boards": ["boards"],
    "eval": ["eval", "rODENet-3", "--depth", "20"],
    "sweep": ["sweep", "--models", "rODENet-3", "--depths", "20", "--n-units", "8", "16"],
    "sim": ["sim", "rODENet-1", "--depth", "20", "--requests", "5", "--rate", "3"],
    # Warm-up past the horizon leaves nothing measured: NaN sentinels everywhere.
    "sim-fmea-degenerate": [
        "sim", "rODENet-1", "--depth", "20", "--requests", "5", "--rate", "3",
        "--warmup", "1000", "--faults", "--fault-samples", "1",
    ],
    "sim-boards": [
        "sim", "rODENet-1", "--depth", "20", "--requests", "5", "--rate", "3",
        "--warmup", "1000", "--board", "PYNQ-Z2,ZCU104",
    ],
    "fleet": ["fleet", "--requests", "50"],
    "faults": ["faults"],
    "optimize": ["optimize", "--objective", "board_price_usd", "--n-units", "16"],
    "timing": ["timing"],
    "accuracy-sweep": ["accuracy-sweep", "--images", "1", "--formats", "16:8"],
    "rtl": ["rtl", "--block", "layer1", "--n-units", "8", "--out", "{tmp}"],
}


#: Every subcommand offering ``--format json``; it must print what ``--json`` prints.
FORMAT_JSON_INVOCATIONS = {
    "sweep": STRICT_JSON_INVOCATIONS["sweep"] + ["--engine", "batch"],
    "sweep-loop": STRICT_JSON_INVOCATIONS["sweep"] + ["--engine", "loop"],
    "sim": STRICT_JSON_INVOCATIONS["sim"],
    "sim-fmea-degenerate": STRICT_JSON_INVOCATIONS["sim-fmea-degenerate"],
    "sim-boards": STRICT_JSON_INVOCATIONS["sim-boards"],
    "fleet": STRICT_JSON_INVOCATIONS["fleet"],
    "optimize": STRICT_JSON_INVOCATIONS["optimize"],
    # A zero input makes the datapath error-free: sqnr_db is +inf.
    "accuracy-sweep-error-free": [
        "accuracy-sweep", "--formats", "32:20", "--images", "2", "--input-scale", "0",
    ],
}


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


class TestStrictJson:
    """Every ``--json`` emission is RFC 8259 JSON: no bare NaN/Infinity."""

    def test_every_subcommand_is_covered(self):
        covered = {argv[0] for argv in STRICT_JSON_INVOCATIONS.values()}
        assert covered == set(registered_commands())

    @pytest.mark.parametrize("case", sorted(STRICT_JSON_INVOCATIONS))
    def test_json_has_no_nan_or_infinity(self, capsys, tmp_path, case):
        argv = [a.replace("{tmp}", str(tmp_path)) for a in STRICT_JSON_INVOCATIONS[case]]
        out = run_cli(capsys, *argv, "--json")
        json.loads(out, parse_constant=_reject_constant)

    @pytest.mark.parametrize("case", sorted(FORMAT_JSON_INVOCATIONS))
    def test_format_json_is_strict_too(self, capsys, case):
        """``--format json`` prints the bytes ``--json`` prints."""

        out = run_cli(capsys, *FORMAT_JSON_INVOCATIONS[case], "--format", "json")
        assert out == run_cli(capsys, *FORMAT_JSON_INVOCATIONS[case], "--json")
        json.loads(out, parse_constant=_reject_constant)


SEED_ERROR = "seed must be a non-negative integer (got -1)"


class TestNamedErrors:
    """Bad numbers and names exit 2 with an error naming the field."""

    @pytest.mark.parametrize(
        "argv, field",
        [
            ("sim --rate nan", "arrival_rate_hz"),
            ("sim --slo-ms nan", "slo_s"),
            ("fleet --slo-ms nan", "slo_s"),
            ("fleet --rate inf", "arrival_rate_hz"),
            ("fleet --rate nan", "arrival_rate_hz"),
            ("optimize --objective min:bram --budget nan", "budget"),
            ("sim --duration nan", "duration_s"),
            ("sim --faults --fault-duration nan", "duration_s"),
            ("sim --arrivals trace --trace nan 1", "trace timestamps"),
            ("accuracy-sweep --input-scale nan", "input_scale"),
            ("accuracy-sweep --input-scale -1", "input_scale"),
            ("timing --clock-mhz 0", "target_hz"),
            ("timing --clock-mhz -5", "target_hz"),
            ("sim --warmup nan", "warmup_s"),
            ("fleet --duration inf", "duration_s"),
            ("fleet --autoscale-interval nan", "autoscale_interval_s"),
            ("fleet --classes a:inf", "weight"),
            ("sim --faults replica_death:nan", "rate_per_hour"),
            ("rtl --step-size nan --out {tmp}", "step_size"),
            ("rtl --vectors -1 --out {tmp}", "vectors"),
            ("rtl --vectors 1 --iterations 0 --out {tmp}", "iterations"),
        ],
    )
    def test_non_finite_or_out_of_range_number(self, capsys, tmp_path, argv, field):
        assert main(argv.replace("{tmp}", str(tmp_path)).split()) == 2
        err = capsys.readouterr().err
        assert "error:" in err and field in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param("sim --requests 5 --seed -1", SEED_ERROR, id="sim-seed"),
            pytest.param("fleet --requests 40 --seed -1", SEED_ERROR, id="fleet-seed"),
            pytest.param("accuracy-sweep --images 1 --seed -1", SEED_ERROR, id="accuracy-seed"),
            pytest.param("sim --requests 5 --fault-seed -1", "fault_" + SEED_ERROR,
                         id="sim-fault-seed"),
            pytest.param("sim --requests 5 --faults --fault-samples 1 --fault-seed -1",
                         "fault_" + SEED_ERROR, id="fmea-fault-seed"),
            pytest.param("optimize --objective min:bram --seed -1", SEED_ERROR,
                         id="optimize-seed"),
            pytest.param("optimize --objective min:bram --rate nan", "arrival_rate_hz",
                         id="optimize-analytic-rate"),
            pytest.param("optimize --objective min:bram --count -1",
                         "board count must be a positive integer", id="optimize-analytic-count"),
        ],
    )
    def test_bad_seed_or_unused_serving_knob(self, capsys, argv, message):
        # optimize checks its fixed serving knobs whatever the fidelity, so
        # the analytic default refuses them too instead of ignoring them.
        assert main(argv.split()) == 2
        assert message in capsys.readouterr().err

    def test_unknown_rtl_block(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["rtl", "--block", "bogus", "--out", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_bad_mix_entry(self, capsys):
        assert main(["sim", "--mix", "rODENet-3:x"]) == 2
        assert "bad --mix entry 'rODENet-3:x'" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    @pytest.mark.parametrize("others", [[], ["ResNet:20"]])
    def test_non_finite_mix_weight_is_named(self, capsys, weight, others):
        argv = ["sim", "rODENet-3", "--depth", "20", "--requests", "5",
                "--mix", f"rODENet-3:20:{weight}", *others]
        assert main(argv) == 2
        assert "mix weights must be finite" in capsys.readouterr().err

    def test_non_numeric_accuracy_pareto_metric(self, capsys):
        argv = ["accuracy-sweep", "--images", "1", "--formats", "16:8",
                "--format", "pareto", "--pareto-x", "block"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "pareto metrics must be numeric columns" in err and "--pareto-x block" in err


class TestCsvFormat:
    def test_unmeasured_sim_values_are_empty_cells(self, capsys):
        out = run_cli(capsys, "sim", "--requests", "3", "--warmup", "100", "--format", "csv")
        header, row = out.rstrip("\n").split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert "nan" not in row
        assert cells["latency_p99_s"] == cells["energy_per_request_J"] == ""
        data = json.loads(run_cli(capsys, "sim", "--requests", "3", "--warmup", "100", "--json"))
        assert data["latency"]["p99_s"] is None


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away: every write raises."""

    def __init__(self, fd: int) -> None:
        super().__init__()
        self._fd = fd

    def write(self, text: str) -> int:
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self) -> int:
        return self._fd


class TestClosedStdout:
    """``repro-odenet ... | head`` ends quietly, without a traceback."""

    ARGV = ["accuracy-sweep", "--formats", "32:20", "--images", "2", "--format", "json"]

    def test_broken_pipe_exits_quietly(self, capsys, monkeypatch, tmp_path):
        with open(tmp_path / "stdout", "w") as sink:
            monkeypatch.setattr(sys, "stdout", _ClosedPipe(sink.fileno()))
            assert main(self.ARGV) == 1
        assert capsys.readouterr().err == ""

    def test_closed_pipe_in_a_real_process(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", *self.ARGV],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""


class TestEvalCommand:
    def test_default_eval_reports_headline_design(self, capsys):
        out = run_cli(capsys, "eval")
        assert "Scenario rODENet-3-56" in out
        for section in ("[parameters]", "[resources]", "[timing]", "[energy]", "[training]"):
            assert section in out

    def test_eval_json(self, capsys):
        data = json.loads(run_cli(capsys, "eval", "rODENet-3", "--depth", "56", "--json"))
        assert data["energy"]["energy_ratio"] > 1.0

    def test_eval_solver_knob(self, capsys):
        euler = json.loads(run_cli(capsys, "eval", "--solver", "euler", "--json"))
        rk4 = json.loads(run_cli(capsys, "eval", "--solver", "rk4", "--json"))
        assert rk4["timing"]["total_wo_pl_s"] > euler["timing"]["total_wo_pl_s"]


class TestSweepCommand:
    def test_csv_grid_one_row_per_scenario(self, capsys):
        out = run_cli(capsys, "sweep", "--depths", "20", "56", "--n-units", "8", "16",
                      "--format", "csv")
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert len(lines) == 1 + 7 * 2 * 2  # all Table-5 models x 2 depths x 2 unit counts
        for column in ("bram", "dsp", "total_w_pl_s", "overall_speedup", "energy_ratio"):
            assert column in header

    def test_json_format(self, capsys):
        out = run_cli(capsys, "sweep", "--models", "rODENet-3", "--depths", "56",
                      "--format", "json")
        data = json.loads(out)
        assert len(data) == 1 and data[0]["scenario"]["depth"] == 56

    def test_wordlength_axis(self, capsys):
        out = run_cli(capsys, "sweep", "--models", "rODENet-3", "--depths", "56",
                      "--wordlengths", "32", "16", "--format", "json")
        data = json.loads(out)
        assert [d["scenario"]["word_length"] for d in data] == [32, 16]
        assert data[1]["resources"]["bram"] < data[0]["resources"]["bram"]

    @pytest.mark.parametrize("fmt", ["csv", "json", "table"])
    def test_batch_engine_output_identical_to_loop(self, capsys, fmt):
        argv = ["sweep", "--models", "rODENet-3", "Hybrid-3", "--depths", "20", "56",
                "--n-units", "8", "16", "--format", fmt]
        loop = run_cli(capsys, *argv)
        batch = run_cli(capsys, *argv, "--engine", "batch")
        assert batch == loop

    def test_pareto_format(self, capsys):
        out = run_cli(capsys, "sweep", "--models", "rODENet-3", "--depths", "20", "56",
                      "--n-units", "1", "4", "16", "--engine", "batch", "--format", "pareto",
                      "--pareto-x", "bram", "--pareto-y", "overall_speedup", "--maximize-y")
        assert "Pareto front over (bram, overall_speedup)" in out

    def test_pareto_works_with_loop_engine_too(self, capsys):
        out = run_cli(capsys, "sweep", "--models", "rODENet-3", "--depths", "20", "56",
                      "--format", "pareto")
        assert "Pareto front" in out

    def test_unknown_pareto_metric_is_a_clean_error(self, capsys):
        assert main(["sweep", "--models", "rODENet-3", "--depths", "56",
                     "--format", "pareto", "--pareto-x", "totl_w_pl_s"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "unknown pareto metric" in err

    def test_non_numeric_pareto_metric_is_a_clean_error(self, capsys):
        assert main(["sweep", "--models", "rODENet-3", "--depths", "56",
                     "--format", "pareto", "--pareto-x", "targets"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "numeric" in err

    @pytest.mark.parametrize(
        "flag", ["--models", "--depths", "--n-units", "--wordlengths", "--solvers", "--qformats"]
    )
    def test_empty_axis_is_refused(self, capsys, flag):
        assert main(["sweep", flag, "--format", "csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {flag} needs at least one value" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--workers", "4"],
            ["sweep", "--engine", "batch", "--cache-dir", "c"],
            ["sweep", "--verbose"],
            ["optimize", "--objective", "board_price_usd", "--cache-dir", "c"],
        ],
    )
    def test_deleted_flags_are_rejected_by_argparse(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


#: The design-space export a user runs (3,584 rows: 7 models x 2 depths x
#: 32 unit counts x 2 word lengths x 4 boards), the exact argv of the
#: explore benchmark's sweep call.
EXPLORE_SWEEP_ARGV = [
    "sweep", "--depths", "20", "56", "--n-units", *map(str, range(1, 33)),
    "--wordlengths", "16", "32", "--boards", "PYNQ-Z2", "Zybo-Z7-20", "Ultra96-V2", "ZCU104",
    "--engine", "batch", "--format", "csv",
]
EXPLORE_SWEEP_HEADER = (
    "model,depth,n_units,word_length,fraction_bits,solver,board,pl_clock_hz,variant,qformat,"
    "param_count,param_bytes,accuracy_pct,accuracy_stable,bram,dsp,lut,ff,bram_pct,dsp_pct,"
    "lut_pct,ff_pct,targets,fits_device,meets_timing,offload_target,total_wo_pl_s,"
    "target_wo_pl_s,ratio_of_target_pct,target_w_pl_s,total_w_pl_s,overall_speedup,"
    "speedup_vs_resnet,solver_stages,energy_without_pl_J,energy_with_pl_J,energy_ratio,"
    "time_speedup,offload,train_step_sw_s,train_step_offloaded_s,target_share_pct,step_speedup,"
    "epoch_hours_software,epoch_hours_offloaded,full_run_days_software,full_run_days_offloaded"
)
SMALL_SWEEP_JSON_ARGV = [
    "sweep", "--depths", "20", "56", "--n-units", "8", "16", "--boards", "PYNQ-Z2", "ZCU104",
    "--format", "json",
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestSweepBytes:
    """Sweep exports stay byte for byte what they were before the grid and
    the CSV export learned to do each distinct value's work once."""

    def test_explore_sweep_csv(self, capsys):
        out = run_cli(capsys, *EXPLORE_SWEEP_ARGV)
        assert out.count("\n") == 3585
        assert out[:out.index("\n")] == EXPLORE_SWEEP_HEADER
        assert _sha256(out) == "dbf27cc9388b28b1054bd2e3705ce2138b2012da71c16aaf7f68f57d947af8ad"

    @pytest.mark.parametrize("engine", ["batch", "loop"])
    def test_small_sweep_json(self, capsys, engine):
        out = run_cli(capsys, *SMALL_SWEEP_JSON_ARGV, "--engine", engine)
        assert _sha256(out) == "3eef4c55195b6ee5d0d49990ddd73bd59db4edb7f51934fd8960d18dc4a9ee72"


class TestBoardsCommand:
    def test_lists_every_registered_board(self, capsys):
        from repro.platform import list_boards

        out = run_cli(capsys, "boards")
        assert "Registered boards" in out
        for name in list_boards():
            assert name in out

    def test_json_records_carry_the_device_vector(self, capsys):
        out = run_cli(capsys, "boards", "--json")
        records = json.loads(out)
        by_name = {r["board"]: r for r in records}
        assert by_name["ZCU104"]["dsp"] == 1728
        assert by_name["PYNQ-Z2"]["bram36"] == 140
        for record in records:
            for key in ("fpga", "bram36", "dsp", "lut", "ff", "pl_mhz", "ps_active_w"):
                assert key in record


class TestBoardAxis:
    def test_sweep_boards_batch_matches_loop_bit_for_bit(self, capsys):
        argv = ["sweep", "--models", "rODENet-3", "--depths", "20", "56",
                "--n-units", "8", "16", "--boards", "PYNQ-Z2,Zybo-Z7-20,Ultra96-V2",
                "--format", "csv"]
        batch = run_cli(capsys, *argv, "--engine", "batch")
        loop = run_cli(capsys, *argv, "--engine", "loop")
        assert batch == loop
        rows = batch.splitlines()
        assert len(rows) == 1 + 2 * 2 * 3  # header + models x units x boards
        assert sum("Ultra96-V2" in row for row in rows) == 4

    def test_sweep_boards_space_separated_too(self, capsys):
        out = run_cli(capsys, "sweep", "--models", "ResNet", "--depths", "20",
                      "--boards", "PYNQ-Z2", "ZCU104", "--format", "csv")
        assert "ZCU104" in out and "PYNQ-Z2" in out

    def test_unknown_board_is_a_clean_error_listing_the_registry(self, capsys):
        assert main(["sweep", "--models", "ResNet", "--depths", "20",
                     "--boards", "DE10-Nano"]) == 2
        err = capsys.readouterr().err
        assert "unknown board 'DE10-Nano'" in err and "PYNQ-Z2" in err

    @pytest.mark.parametrize(
        "spelling, board, clock_hz",
        [
            pytest.param("ZCU104", "ZCU104", 200e6, id="ZCU104"),
            pytest.param("zcu104", "ZCU104", 200e6, id="zcu104"),
            pytest.param("pynq_z2", "PYNQ-Z2", 100e6, id="pynq_z2"),
        ],
    )
    def test_eval_board_knob(self, capsys, spelling, board, clock_hz):
        out = run_cli(capsys, "eval", "rODENet-3", "--board", spelling, "--json")
        data = json.loads(out)
        assert data["scenario"]["board"] == board
        assert data["scenario"]["pl_clock_hz"] == clock_hz

    def test_timing_board_knob(self, capsys):
        pynq = run_cli(capsys, "timing", "--n-units", "32")
        zcu = run_cli(capsys, "timing", "--n-units", "32", "--board", "ZCU104")
        assert "FAILED" in pynq  # conv_x32 misses 100 MHz on the 7-series
        assert "200.0 MHz" in zcu


class TestSimBoardComparison:
    def test_two_boards_share_one_trace(self, capsys):
        out = run_cli(capsys, "sim", "rODENet-1", "--depth", "20", "--rate", "3",
                      "--requests", "20", "--replicas", "auto", "--ps-cores", "auto",
                      "--board", "PYNQ-Z2,ZCU104")
        assert "Cross-board serving" in out
        assert "PYNQ-Z2" in out and "ZCU104" in out

    def test_comparison_json_is_one_report_per_board(self, capsys):
        out = run_cli(capsys, "sim", "rODENet-1", "--depth", "20", "--rate", "3",
                      "--requests", "15", "--board", "PYNQ-Z2,Ultra96-V2", "--json")
        reports = json.loads(out)
        assert [r["scenario"]["board"] for r in reports] == ["PYNQ-Z2", "Ultra96-V2"]
        offered = {r["requests"]["offered"] for r in reports}
        assert offered == {15}  # identical trace across boards

    def test_warmup_flag_trims_measurement(self, capsys):
        out = run_cli(capsys, "sim", "rODENet-1", "--depth", "20", "--rate", "4",
                      "--requests", "30", "--warmup", "2.0", "--json")
        report = json.loads(out)
        assert report["scenario"]["warmup_s"] == 2.0
        assert report["requests"]["measured"] < report["requests"]["offered"]
