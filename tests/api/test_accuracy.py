"""Tests of the accuracy-vs-Q-format sweep API and its CLI subcommands."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import accuracy_sweep
from repro.api.accuracy import COLUMNS, DEFAULT_FORMAT_LADDER, _float_conv
from repro.cli import main
from repro.fixedpoint import Q16, Q20, QFormat
from repro.fpga import HardwareODEBlock, BlockWeights
from repro.fpga.geometry import block_geometry


def small_sweep(**kwargs):
    defaults = dict(block="layer3_2", images=2, n_units=(16,), seed=0)
    defaults.update(kwargs)
    return accuracy_sweep(**defaults)


class TestAccuracySweepApi:
    def test_default_ladder_produces_one_row_per_format_and_unit_count(self):
        result = small_sweep(n_units=(8, 16))
        assert len(result) == len(DEFAULT_FORMAT_LADDER) * 2
        assert set(result.records()[0]) == set(COLUMNS)

    def test_error_shrinks_as_fraction_bits_grow(self):
        result = small_sweep(formats=[(32, 20), (16, 8), (8, 4)])
        rms = result.column("rms_error")
        assert rms[0] < rms[1] < rms[2]

    def test_bram_shrinks_with_word_length(self):
        result = small_sweep(formats=[(32, 20), (16, 8), (8, 4)])
        tiles = result.column("bram_tiles")
        assert tiles[0] > tiles[1] > tiles[2]

    def test_measured_error_within_analytic_bound_when_not_saturating(self):
        result = small_sweep(formats=[(32, 20), (24, 12), (16, 8)], input_scale=0.3)
        for rec in result.records():
            assert rec["overflow_fraction"] == 0.0
            assert rec["max_abs_error"] <= rec["error_bound"]

    def test_saturation_is_reported_for_hot_inputs_at_narrow_formats(self):
        result = small_sweep(formats=[(8, 6)], input_scale=4.0)
        assert result.records()[0]["overflow_fraction"] > 0.0

    def test_matches_explicit_batched_forward(self):
        """The sweep's measurement equals running the block by hand."""

        fmt = Q16
        result = small_sweep(formats=[fmt], images=3, seed=5)
        geometry = block_geometry("layer3_2")
        rng = np.random.default_rng(5)
        weights = BlockWeights.random(geometry, rng, scale=0.1)
        z = rng.normal(0.0, 0.5, size=(3, 64, 8, 8))
        hw = HardwareODEBlock(geometry, weights, n_units=16, qformat=fmt)
        out = hw.dynamics_batch(z)
        # The sweep's max error is measured against the float reference, so
        # replaying the quantised forward must reproduce a deviation of the
        # same magnitude (spot check the plumbing, not the exact value).
        assert result.records()[0]["max_abs_error"] > 0.0
        assert out.shape == z.shape

    def test_same_seed_is_reproducible(self):
        a = small_sweep(seed=3).records()
        b = small_sweep(seed=3).records()
        assert a == b

    def test_latency_and_timing_track_unit_count(self):
        result = small_sweep(formats=[(16, 8)], n_units=(1, 16, 32))
        latency = result.column("latency_s")
        assert latency[0] > latency[1] > latency[2]
        assert result.column("meets_timing").tolist() == [True, True, False]

    def test_pareto_front_is_nondominated_subset(self):
        result = small_sweep(n_units=(4, 16))
        front = result.pareto_front()
        assert 0 < len(front) <= len(result)
        lat, err = front.column("latency_s"), front.column("rms_error")
        order = np.argsort(lat)
        assert all(np.diff(err[order]) <= 0)

    def test_unknown_column_raises(self):
        with pytest.raises(KeyError, match="unknown column"):
            small_sweep(formats=[(16, 8)]).column("nope")

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            small_sweep(images=0)
        with pytest.raises(ValueError):
            small_sweep(n_units=())
        with pytest.raises(ValueError):
            small_sweep(n_units=(0,))
        with pytest.raises(ValueError, match="non-empty"):
            small_sweep(formats=[])

    def test_qformat_instances_accepted(self):
        result = small_sweep(formats=[Q20, QFormat(10, 7)])
        assert [r["qformat"] for r in result.records()] == [Q20.name, QFormat(10, 7).name]

    def test_csv_and_json_round_trip(self):
        result = small_sweep(formats=[(16, 8), (8, 4)])
        csv_text = result.to_csv()
        assert csv_text.splitlines()[0] == ",".join(COLUMNS)
        assert len(csv_text.splitlines()) == 3
        data = json.loads(result.to_json())
        assert [row["word_length"] for row in data["points"]] == [16, 8]
        assert data["reproducibility"]["seed"] == 0
        assert data["reproducibility"]["workers"] == 1


class TestAccuracySweepCli:
    def run(self, capsys, *argv) -> str:
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def test_table_output(self, capsys):
        out = self.run(capsys, "accuracy-sweep", "--images", "2", "--wordlengths", "32", "16")
        assert "Accuracy-vs-format sweep" in out
        assert "Q20 (32-bit)" in out and "Q8 (16-bit)" in out

    def test_json_output_schema(self, capsys):
        out = self.run(capsys, "accuracy-sweep", "--images", "2", "--formats", "16:8", "--json")
        data = json.loads(out)
        assert set(data) == {"reproducibility", "points"}
        assert len(data["points"]) == 1
        assert set(data["points"][0]) == set(COLUMNS)
        assert data["reproducibility"]["chunk_size"] is None

    def test_table_echoes_reproducibility(self, capsys):
        out = self.run(capsys, "accuracy-sweep", "--images", "2", "--formats", "16:8")
        assert "reproducibility:" in out and "seed=0" in out

    def test_pareto_output(self, capsys):
        out = self.run(
            capsys, "accuracy-sweep", "--images", "2", "--n-units", "4", "16",
            "--format", "pareto",
        )
        assert "Pareto front" in out

    def test_csv_output(self, capsys):
        out = self.run(capsys, "accuracy-sweep", "--images", "2", "--formats", "12:6", "--format", "csv")
        assert out.splitlines()[0] == ",".join(COLUMNS)

    def test_bad_format_entry_is_clean_error(self, capsys):
        assert main(["accuracy-sweep", "--formats", "16-8"]) == 2
        err = capsys.readouterr().err
        assert "expected WL:FB" in err

    def test_formats_and_wordlengths_conflict(self, capsys):
        assert main(["accuracy-sweep", "--formats", "16:8", "--wordlengths", "32"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_empty_formats_is_clean_error_not_default_ladder(self, capsys):
        assert main(["accuracy-sweep", "--formats"]) == 2
        assert "non-empty" in capsys.readouterr().err

    def test_sweep_qformats_error_names_the_right_flag(self, capsys):
        assert main(["sweep", "--qformats", "16-8"]) == 2
        err = capsys.readouterr().err
        assert "--qformats" in err and "--formats entry" not in err

    def test_unknown_pareto_metric_is_clean_error(self, capsys):
        assert main(["accuracy-sweep", "--images", "2", "--format", "pareto", "--pareto-x", "nope"]) == 2
        assert "unknown pareto metric" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--formats", "32:20", "40:24", "48:30"],
            ["--formats", "40:24", "--input-scale", "100"],
        ],
        ids=["ladder-past-32", "hot-40-bit"],
    )
    def test_word_lengths_above_32_exit_2(self, capsys, argv):
        # Wider words wrap their int64 products: rows used to come back
        # silently wrong (or die in fx_sqrt) instead of being refused.
        assert main(["accuracy-sweep", "--images", "2", *argv]) == 2
        assert "word_length must be at most 32 bits" in capsys.readouterr().err


class TestFloatReference:
    """The float64 reference conv against a direct, im2col-free convolution."""

    @pytest.mark.parametrize("kernel", [1, 3])
    def test_float_conv_matches_direct_conv(self, rng, conv_oracle, kernel):
        x = rng.normal(size=(3, 5, 7, 7))
        w = rng.normal(size=(4, 5, kernel, kernel))
        np.testing.assert_allclose(
            _float_conv(x, w),
            conv_oracle(x, w, 1, 1),
            rtol=1e-12, atol=1e-12,
        )


class TestTimingCli:
    def run(self, capsys, *argv) -> str:
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def test_default_sweep_matches_paper_observation(self, capsys):
        out = self.run(capsys, "timing")
        assert "conv_x16" in out and "conv_x32" in out
        assert "FAILED" in out  # conv_x32 at 100 MHz
        assert out.count("met") >= 4

    def test_custom_clock_and_units(self, capsys):
        out = self.run(capsys, "timing", "--n-units", "32", "--clock-mhz", "50")
        assert "conv_x32" in out and "met" in out and "FAILED" not in out

    def test_json_output(self, capsys):
        out = self.run(capsys, "timing", "--n-units", "8", "16", "--json")
        data = json.loads(out)
        assert [row["n_units"] for row in data] == [8, 16]
        assert {"fmax_mhz", "slack_ns", "meets_timing"} <= set(data[0])

    def test_invalid_units_clean_error(self, capsys):
        assert main(["timing", "--n-units", "0"]) == 2
        assert "positive" in capsys.readouterr().err
