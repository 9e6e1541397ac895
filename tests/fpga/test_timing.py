"""Tests for the timing-closure model."""

from __future__ import annotations

import pytest

from repro.fpga import TimingModel


class TestPaperTimingObservation:
    """Section 3.1: conv_x32 fails 100 MHz; conv_x16 and below pass."""

    @pytest.mark.parametrize("n_units", [1, 4, 8, 16])
    def test_up_to_x16_meets_timing(self, n_units):
        assert TimingModel().analyze(n_units).meets_timing

    def test_x32_fails_timing(self):
        assert not TimingModel().analyze(32).meets_timing

    def test_max_units_meeting_timing_is_16(self):
        met = [n for n in (1, 2, 4, 8, 16, 32, 64) if TimingModel().analyze(n).meets_timing]
        assert max(met) == 16


class TestTimingModelBehaviour:
    def test_critical_path_monotone_in_units(self):
        model = TimingModel()
        paths = [model.critical_path_ns(n) for n in (1, 2, 4, 8, 16, 32)]
        assert all(a < b for a, b in zip(paths, paths[1:]))

    def test_fmax_inverse_of_path(self):
        model = TimingModel()
        assert model.fmax_hz(8) == pytest.approx(1e9 / model.critical_path_ns(8))

    def test_slack_sign_matches_meets_timing(self):
        model = TimingModel()
        for n in (1, 16, 32):
            report = model.analyze(n)
            assert (report.slack_ns >= 0) == report.meets_timing

    def test_invalid_units(self):
        with pytest.raises(ValueError):
            TimingModel().critical_path_ns(0)

    def test_lower_target_clock_always_passes(self):
        model = TimingModel()
        assert model.analyze(32, target_hz=50e6).meets_timing

    def test_sweep_and_report_dict(self):
        d = TimingModel().analyze(16).as_dict()
        assert {"n_units", "fmax_mhz", "meets_timing", "slack_ns"} <= set(d)


class TestTimingReportStr:
    """__str__ is the CLI `timing` table row; pin its load-bearing content."""

    def test_passing_report_mentions_met_and_positive_slack(self):
        line = str(TimingModel().analyze(16))
        assert "conv_x16" in line
        assert "met" in line
        assert "+0.20 ns" in line
        assert "102.0 MHz" in line

    def test_failing_report_mentions_failed_and_negative_slack(self):
        line = str(TimingModel().analyze(32))
        assert "conv_x32" in line
        assert "FAILED" in line
        assert "-1.00 ns" in line

    def test_str_reflects_custom_target_clock(self):
        line = str(TimingModel().analyze(32, target_hz=50e6))
        assert "50.0 MHz" in line
        assert "met" in line
