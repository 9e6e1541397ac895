"""Tests for the table record generators."""

from __future__ import annotations

import pytest

from repro.analysis import (
    table1_records,
    table2_records,
    table3_records,
    table4_records,
    table5_records,
)


class TestTable1:
    def test_board_specification(self):
        records = {r["item"]: r["value"] for r in table1_records()}
        assert "650MHz" in records["CPU"]
        assert "512MB" in records["DRAM"]
        assert "XC7Z020" in records["FPGA"]


class TestTable2:
    def test_seven_rows(self):
        records = table2_records()
        assert len(records) == 7
        assert records[0]["layer"] == "conv1"

    def test_values_match_paper(self):
        by_layer = {r["layer"]: r for r in table2_records()}
        assert by_layer["layer3_2"]["parameter_kB"] == pytest.approx(300.54, abs=0.01)
        assert by_layer["layer1"]["parameter_kB"] == pytest.approx(19.84, abs=0.01)


class TestTable3:
    def test_twelve_rows_with_estimates(self):
        records = table3_records(include_estimates=True)
        assert len(records) == 12
        assert all("model_lut" in r for r in records)

    def test_layer3_2_conv16_row(self):
        row = next(
            r for r in table3_records() if r["layer"] == "layer3_2" and r["parallelism"] == "conv_16"
        )
        assert row["bram_pct"] == pytest.approx(100.0)
        assert row["dsp"] == 68
        assert row["lut"] == 12720

    def test_without_estimates(self):
        records = table3_records(include_estimates=False)
        assert all("model_lut" not in r for r in records)


class TestTable4:
    def test_layers_and_variants_present(self):
        records = table4_records(depth=56)
        assert len(records) == 7
        row = next(r for r in records if r["layer"] == "layer3_2")
        assert row["rODENet-3"] == "1 / 24"
        assert row["ResNet"] == "8 / 1"
        assert row["rODENet-1"] == "0 / 0"


def _row(model, **kwargs):
    """The Table 5 row of ``model``."""

    return next(r for r in table5_records(**kwargs) if r["model"] == model)


class TestTable5:
    def test_row_count(self):
        records = table5_records(depths=(20, 56))
        assert len(records) == 7 * 2

    def test_headline_row(self):
        row = _row("rODENet-3", depths=(56,))
        assert row["overall_speedup"] == pytest.approx(2.66, abs=0.05)
        assert row["offload_target"] == "layer3_2"

    def test_resnet_row_has_no_target(self):
        row = _row("ResNet", depths=(20,))
        assert row["target_wo_pl_s"] == "-"
        assert row["overall_speedup"] == 1.0

    def test_custom_parallelism(self):
        fast = _row("rODENet-3", depths=(56,), n_units=16)
        slow = _row("rODENet-3", depths=(56,), n_units=1)
        assert slow["overall_speedup"] < fast["overall_speedup"]
