"""The ``rtl`` CLI subcommand and ``repro.api.export_rtl``."""

import json

import pytest

from repro.api import export_rtl
from repro.cli import main
from repro.rtl import iverilog_available


def test_cli_emit_and_check(tmp_path, capsys):
    out = tmp_path / "bundle"
    rc = main(
        [
            "rtl", "--block", "layer1", "--qformat", "16:8", "--n-units", "4",
            "--out", str(out), "--vectors", "1", "--iterations", "1", "--check",
        ]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "check     ok" in text
    assert (out / "odeblock_top.v").is_file()
    assert (out / "rtl_manifest.json").is_file()
    assert (out / "stimulus.hex").is_file()
    assert (out / "tb_odeblock.v").is_file()


def test_cli_json_schema(tmp_path, capsys):
    rc = main(
        [
            "rtl", "--block", "layer1", "--qformat", "16:8", "--n-units", "2",
            "--out", str(tmp_path / "b"), "--vectors", "1", "--iterations", "1",
            "--check", "--json",
        ]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    for key in ("block", "qformat", "n_units", "files", "resources", "check", "vectors"):
        assert key in data, key
    assert data["check"]["ok"] is True
    assert data["qformat"] == {"word_length": 16, "fraction_bits": 8}
    assert data["vectors"]["records"] == 1


def test_cli_simulate_skips_cleanly_without_iverilog(tmp_path, capsys, monkeypatch):
    import repro.api.rtl as api_rtl

    monkeypatch.setattr(api_rtl, "iverilog_available", lambda: False)
    rc = main(
        [
            "rtl", "--block", "layer1", "--qformat", "16:8", "--n-units", "2",
            "--out", str(tmp_path / "b"), "--vectors", "1", "--iterations", "1",
            "--simulate", "--json",
        ]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["simulation"]["skipped"] is True


@pytest.mark.skipif(not iverilog_available(), reason="iverilog/vvp not on PATH")
@pytest.mark.parametrize(
    "design",
    [
        ["--block", "layer3_2", "--qformat", "12:6"],
        ["--block", "layer2_2", "--board", "ZCU104", "--qformat", "16:8"],
    ],
    ids=["layer3_2-12:6", "layer2_2-ZCU104-16:8"],
)
def test_cli_simulate_passes_conformance(tmp_path, capsys, design):
    rc = main(
        [
            "rtl", *design, "--n-units", "16", "--out", str(tmp_path / "b"),
            "--vectors", "1", "--iterations", "1", "--check", "--simulate", "--json",
        ]
    )
    assert rc == 0
    sim = json.loads(capsys.readouterr().out)["simulation"]
    assert sim["skipped"] is False, "simulation unexpectedly skipped"
    assert sim["passed"] is True, "conformance FAILED"
    assert sim["words"] > 0


def test_cli_bad_qformat_is_exit_2(tmp_path, capsys):
    rc = main(["rtl", "--qformat", "banana", "--out", str(tmp_path / "b")])
    assert rc == 2


def test_cli_simulate_without_vectors_is_exit_2(tmp_path, capsys):
    rc = main(["rtl", "--out", str(tmp_path / "b"), "--simulate"])
    assert rc == 2


def test_cli_unknown_board_is_exit_2(tmp_path, capsys):
    rc = main(["rtl", "--board", "nonexistent", "--out", str(tmp_path / "b")])
    assert rc == 2
    assert "available boards" in capsys.readouterr().err


def test_export_rtl_board_name_is_case_insensitive(tmp_path):
    a = export_rtl(tmp_path / "a", block="layer1", board="pynq-z2",
                   qformat=(16, 8), n_units=2, check=False)
    b = export_rtl(tmp_path / "b", block="layer1", board="PYNQ_Z2",
                   qformat=(16, 8), n_units=2, check=False)
    assert a["board"] == b["board"] == {"name": "PYNQ-Z2", "pl_clock_hz": 100000000}


def test_export_rtl_simulate_requires_vectors(tmp_path):
    with pytest.raises(ValueError, match="vectors"):
        export_rtl(tmp_path / "x", block="layer1", qformat=(16, 8),
                   n_units=2, vectors=0, simulate=True)
