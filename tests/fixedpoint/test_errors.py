"""Tests for the whole-batch quantisation-error reference (``tests/error_reference.py``)."""

from __future__ import annotations

import numpy as np
import pytest

from error_reference import analyze_quantization, sqnr_db, sweep_wordlengths

from repro.fixedpoint import Q8, Q16, Q20


class TestAnalyzeQuantization:
    def test_report_fields(self, rng):
        values = rng.normal(size=1000)
        report = analyze_quantization(values, Q20)
        assert report.fmt == Q20
        assert 0 <= report.max_abs_error <= Q20.resolution / 2 + 1e-12
        assert report.mean_abs_error <= report.max_abs_error
        assert report.rms_error <= report.max_abs_error
        assert report.overflow_fraction == 0.0
        assert report.sqnr_db > 80  # Q20 on unit-scale data is very precise

    def test_overflow_fraction(self):
        values = np.array([0.0, 5000.0, -5000.0, 1.0])
        report = analyze_quantization(values, Q20)
        assert report.overflow_fraction == pytest.approx(0.5)

    def test_as_dict_keys(self, rng):
        report = analyze_quantization(rng.normal(size=10), Q16)
        d = report.as_dict()
        assert d["word_length"] == 16 and d["fraction_bits"] == 8
        assert set(d) >= {"max_abs_error", "rms_error", "sqnr_db", "overflow_fraction"}

    def test_coarser_formats_have_lower_sqnr(self, rng):
        values = rng.normal(size=2000)
        reports = sweep_wordlengths(values, [Q20, Q16, Q8])
        sqnrs = [reports[f.name].sqnr_db for f in (Q20, Q16, Q8)]
        assert sqnrs[0] > sqnrs[1] > sqnrs[2]


class TestSqnr:
    def test_zero_noise_is_infinite(self):
        assert sqnr_db(np.ones(10), np.zeros(10)) == float("inf")

    def test_zero_signal_is_negative_infinite(self):
        assert sqnr_db(np.zeros(10), np.ones(10)) == float("-inf")

    def test_known_value(self):
        signal = np.full(10, 2.0)
        noise = np.full(10, 0.2)
        assert sqnr_db(signal, noise) == pytest.approx(20.0)
