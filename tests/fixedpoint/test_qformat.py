"""Tests for the Q-format fixed-point specification."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Scenario, accuracy_sweep, export_rtl, scenario_grid
from repro.fixedpoint import Q8, Q12, Q16, Q20, OverflowMode, QFormat
from repro.opt import SearchSpace


class TestQ20Paper:
    """The paper's 32-bit Q20 format."""

    def test_basic_properties(self):
        assert Q20.word_length == 32
        assert Q20.fraction_bits == 20
        assert Q20.integer_bits == 11
        assert Q20.scale == 2 ** 20
        assert Q20.bytes_per_value == 4

    def test_resolution(self):
        assert Q20.resolution == pytest.approx(2 ** -20)

    def test_range(self):
        assert Q20.max_value == pytest.approx(2 ** 11, rel=1e-6)
        assert Q20.min_value == pytest.approx(-(2 ** 11))

    def test_name(self):
        assert Q20.name == "Q20 (32-bit)"


class TestQFormatValidation:
    def test_rejects_bad_word_length(self):
        with pytest.raises(ValueError):
            QFormat(1, 0)
        with pytest.raises(ValueError):
            QFormat(128, 20)

    def test_rejects_bad_fraction_bits(self):
        with pytest.raises(ValueError):
            QFormat(16, 16)
        with pytest.raises(ValueError):
            QFormat(16, -1)

    @pytest.mark.parametrize(
        "build, message",
        [
            pytest.param(lambda tmp: QFormat(16.5, 8), r"word_length .* \(got 16\.5\)", id="QFormat"),
            pytest.param(lambda tmp: Scenario(word_length=16.0, fraction_bits=8),
                         r"word_length .* \(got 16\.0\)", id="Scenario"),
            pytest.param(lambda tmp: accuracy_sweep(block="layer1", images=1, formats=[(16.5, 8)]),
                         r"bad Q-format \(16\.5, 8\)", id="accuracy_sweep"),
            pytest.param(lambda tmp: export_rtl(tmp, block="layer1", qformat=(16.9, 8), check=False),
                         r"bad Q-format \(16\.9, 8\)", id="export_rtl"),
            pytest.param(lambda tmp: scenario_grid(qformats=[(16.5, 8)]),
                         r"bad Q-format \(16\.5, 8\)", id="scenario_grid"),
            pytest.param(lambda tmp: SearchSpace(axes={"qformat": ["16:x"]}),
                         "bad Q-format '16:x'; expected WL:FB", id="space-16:x"),
            pytest.param(lambda tmp: SearchSpace(axes={"qformat": ["16:8:2"]}),
                         "bad Q-format '16:8:2'; expected WL:FB", id="space-16:8:2"),
        ],
    )
    def test_non_integer_or_malformed_format_is_named(self, tmp_path, build, message):
        with pytest.raises(ValueError, match=message):
            build(tmp_path)

    @pytest.mark.parametrize(
        "spec", [Q16, (16, 8), (np.int64(16), np.int32(8)), "16:8"], ids=repr
    )
    def test_parse_accepts_every_spelling(self, spec):
        fmt = QFormat.parse(spec)
        assert fmt == Q16 and type(fmt.word_length) is type(fmt.fraction_bits) is int

    def test_accuracy_sweep_accepts_wl_fb_strings(self):
        def sweep(formats):
            return accuracy_sweep(block="layer1", images=1, formats=formats).records()

        assert sweep(["16:8"]) == sweep([(16, 8)])

    def test_is_hashable_and_frozen(self):
        assert hash(QFormat(32, 20)) == hash(Q20)
        with pytest.raises(Exception):
            Q20.fraction_bits = 5  # type: ignore[misc]


class TestConversion:
    def test_roundtrip_of_representable_values(self):
        values = np.array([0.0, 1.0, -1.0, 0.5, -0.25, 1000.0, -2047.5])
        np.testing.assert_allclose(Q20.quantize(values), values)

    def test_quantisation_error_bounded_by_half_lsb(self, rng):
        values = rng.uniform(-100, 100, size=1000)
        error = Q20.quantization_error(values)
        assert np.max(np.abs(error)) <= Q20.resolution / 2 + 1e-12

    def test_saturation(self):
        big = np.array([1e6, -1e6])
        quantised = Q20.quantize(big)
        assert quantised[0] == pytest.approx(Q20.max_value)
        assert quantised[1] == pytest.approx(Q20.min_value)

    def test_wrap_mode_wraps(self):
        wrapped = Q20.to_fixed(Q20.max_value + 1.0, mode=OverflowMode.WRAP)
        assert wrapped < 0  # two's-complement wrap-around

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            Q20.to_fixed(1.0, mode="clamp")

    def test_representable_mask(self):
        values = np.array([0.0, 3000.0, -3000.0, 5.0])
        mask = Q20.representable(values)
        assert mask.tolist() == [True, False, False, True]

    def test_reduced_formats_are_coarser(self):
        value = 0.123456789
        errors = [abs(fmt.quantize(value) - value) for fmt in (Q20, Q16, Q12, Q8)]
        assert errors == sorted(errors)


class TestQFormatProperties:
    @given(
        st.integers(4, 32),
        st.data(),
        st.floats(-100, 100, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_quantize_idempotent(self, word, data, value):
        frac = data.draw(st.integers(0, word - 1))
        fmt = QFormat(word, frac)
        once = fmt.quantize(value)
        twice = fmt.quantize(once)
        assert float(once) == float(twice)

    @given(st.floats(-1000, 1000, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_error_bounded_for_in_range_values(self, value):
        if not Q20.representable(value):
            return
        assert abs(Q20.quantize(value) - value) <= Q20.resolution / 2 + 1e-12

    @given(st.floats(-2000, 2000, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_quantize_monotone(self, value):
        assert Q20.quantize(value) <= Q20.quantize(value + 0.1) + 1e-12
