"""JSON-schema smoke checks of the CLI: one end-to-end call per subsystem.

Each test runs the argv of a CI smoke step in-process through
:func:`repro.cli.main` and checks the sections and invariants a consumer of
the ``--json`` payload relies on.
"""

from __future__ import annotations

import json

from repro.cli import main


def run_json(capsys, *argv: str):
    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


def test_boards_json_schema(capsys):
    boards = run_json(capsys, "boards", "--json")
    names = {b["board"] for b in boards}
    assert {"PYNQ-Z2", "Zybo-Z7-20", "Ultra96-V2", "ZCU104"} <= names
    for b in boards:
        for key in ("fpga", "bram36", "dsp", "lut", "ff", "pl_mhz"):
            assert key in b, f"missing column: {key}"


def test_accuracy_sweep_json_schema_and_worker_invariance(capsys):
    data = run_json(capsys, "accuracy-sweep", "--images", "2", "--formats", "16:8", "12:6", "--json")
    rows = data["points"]
    assert [r["word_length"] for r in rows] == [16, 12]
    for key in ("rms_error", "latency_s", "bram_tiles", "fits_device", "meets_timing"):
        assert key in rows[0], f"missing column: {key}"
    assert rows[0]["rms_error"] < rows[1]["rms_error"]
    assert data["reproducibility"]["seed"] == 0

    chunked = ("accuracy-sweep", "--images", "8", "--formats", "16:8", "12:6", "--chunk-size", "4")
    sharded = run_json(capsys, *chunked, "--workers", "2", "--json")
    serial = run_json(capsys, *chunked, "--workers", "1", "--json")
    assert sharded["points"] == serial["points"], "worker-count invariance broken"
    assert sharded["reproducibility"]["workers"] == 2
    assert sharded["reproducibility"]["chunks"] == 2


def test_sim_json_schema(capsys):
    report = run_json(
        capsys, "sim", "rODENet-1", "--depth", "20", "--arrivals", "poisson", "--rate", "3",
        "--requests", "40", "--replicas", "auto", "--policy", "batched", "--json",
    )
    for key in ("scenario", "requests", "latency", "wait", "utilization",
                "queue", "energy", "throughput_rps", "horizon_s"):
        assert key in report, f"missing section: {key}"
    assert report["requests"]["completed"] == report["requests"]["offered"] == 40
    assert report["latency"]["p95_s"] > 0
    assert report["scenario"]["replicas"] >= 2
    assert 0.0 <= report["utilization"]["ps"] <= 1.0


def test_fmea_json_schema(capsys):
    study = run_json(
        capsys, "sim", "rODENet-3", "--depth", "20", "--rate", "3", "--requests", "12",
        "--ps-cores", "2", "--seed", "0", "--slo-ms", "400", "--faults",
        "--fault-samples", "1", "--fault-seed", "0", "--json",
    )
    for key in ("scenario", "slo_s", "nominal", "fmea", "samples", "expected_slo_violation"):
        assert key in study, f"missing section: {key}"
    kinds = {row["mode"] for row in study["fmea"]}
    assert kinds == {"replica_death", "axi_degraded", "ps_core_loss", "dma_corruption"}
    assert study["nominal"]["requests"]["completed"] == 12
    assert study["nominal"]["reproducibility"]["seed"] == 0
    assert study["expected_slo_violation"] >= 0


def test_fleet_json_schema(capsys):
    report = run_json(
        capsys, "fleet", "--boards", "pynq-z2:4,zcu104:2",
        "--classes", "interactive:0.8:latency:900ms,nightly:0.2:batch",
        "--rate", "20", "--requests", "400", "--cells", "2", "--shards", "2", "--seed", "3",
        "--json",
    )
    for key in ("scenario", "requests", "latency", "wait", "classes",
                "boards", "energy", "cells", "shards", "events_processed"):
        assert key in report, f"missing section: {key}"
    assert report["requests"]["offered"] == 400
    assert report["requests"]["completed"] + report["requests"]["rejected"] == 400
    assert [c["name"] for c in report["classes"]] == ["interactive", "nightly"]
    assert report["classes"][1]["rejected"] == 0  # batch is never rejected
    assert {b["board"] for b in report["boards"]} == {"PYNQ-Z2", "ZCU104"}
    assert report["energy"]["total_energy_J"] > 0
    assert report["cells"] == 2 and report["shards"] == 2


def test_optimize_json_schema(capsys):
    report = run_json(
        capsys, "optimize", "--objective", "board_price_usd",
        "--constraint", "latency_ms<=500", "--constraint", "meets_timing==1",
        "--n-units", "16", "32", "--format", "json",
    )
    for key in ("fidelity", "objective", "constraints", "seed", "space",
                "budget", "budget_spent", "evaluations", "best", "candidates"):
        assert key in report, f"missing section: {key}"
    assert report["fidelity"] == "analytic"
    assert report["best"] is not None and report["best"]["objective"] > 0
    assert len(report["candidates"]) == report["space"]["size"] == 8
    statuses = {c["status"] for c in report["candidates"]}
    assert statuses <= {"feasible", "infeasible", "best"}
    assert report["budget_spent"] == 0  # analytic: the screen is the evaluation


def test_rtl_json_schema(capsys, tmp_path):
    a = run_json(
        capsys, "rtl", "--block", "layer1", "--qformat", "16:8", "--n-units", "8",
        "--out", str(tmp_path / "rtl_ci_a"), "--vectors", "2", "--iterations", "1",
        "--check", "--json",
    )
    b = run_json(
        capsys, "rtl", "--block", "layer3_2", "--board", "ZCU104", "--qformat", "32:20",
        "--out", str(tmp_path / "rtl_ci_b"), "--check", "--json",
    )
    for name, report, word, n_vec in (("a", a, 16, 2), ("b", b, 32, 0)):
        for key in ("block", "qformat", "n_units", "files", "resources",
                    "check", "vectors", "simulation"):
            assert key in report, f"rtl {name}: missing section {key}"
        assert report["check"]["ok"] is True
        assert report["qformat"]["word_length"] == word
        assert "odeblock_top.v" in report["files"]
        assert "rtl_manifest.json" in report["files"]
        if n_vec:
            assert report["vectors"]["images"] == n_vec
