"""Property-based tests of the fixed-point layer (hypothesis).

Cover the contracts the bit-accurate PL datapath relies on: saturate/wrap
keep every representation inside the declared word length, quantization error
is bounded by the format resolution, the arithmetic primitives are closed
under the declared Q-format, and representations round-trip losslessly.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fixedpoint import FxArray, QFormat
from repro.fixedpoint.arithmetic import fx_add, fx_mul, fx_relu, fx_sub


def _quantize(fmt: QFormat, values):
    """Round-trip ``values`` through ``fmt``'s integer representation."""

    return fmt.to_float(fmt.to_fixed(values))


@st.composite
def qformats(draw, max_word_length: int = 32):
    """An arbitrary valid QFormat (word length 4..32, any fraction length)."""

    word_length = draw(st.integers(min_value=4, max_value=max_word_length))
    fraction_bits = draw(st.integers(min_value=0, max_value=word_length - 1))
    return QFormat(word_length, fraction_bits)


@st.composite
def format_and_values(draw, size: int = 8):
    """A format plus a batch of real values within its representable range."""

    fmt = draw(qformats())
    values = draw(
        st.lists(
            st.floats(
                min_value=fmt.min_value, max_value=fmt.max_value,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=1,
            max_size=size,
        )
    )
    return fmt, np.asarray(values)


@st.composite
def format_and_raws(draw, size: int = 8):
    """A format plus a batch of integer representations within its range."""

    fmt = draw(qformats())
    raws = draw(
        st.lists(
            st.integers(min_value=fmt.min_int, max_value=fmt.max_int),
            min_size=1,
            max_size=size,
        )
    )
    return fmt, np.asarray(raws, dtype=np.int64)


any_floats = st.floats(allow_nan=False, allow_infinity=False, width=32)


class TestQuantization:
    @settings(max_examples=100, deadline=None)
    @given(format_and_values())
    def test_quantize_dequantize_error_within_resolution(self, fmt_values):
        fmt, values = fmt_values
        error = np.abs(_quantize(fmt, values) - values)
        assert np.all(error <= 2.0 ** -fmt.fraction_bits)

    @settings(max_examples=100, deadline=None)
    @given(qformats(), st.lists(any_floats, min_size=1, max_size=8))
    def test_saturate_stays_within_word_length(self, fmt, values):
        fixed = fmt.to_fixed(np.asarray(values))
        assert np.all(fixed >= fmt.min_int)
        assert np.all(fixed <= fmt.max_int)

    @settings(max_examples=50, deadline=None)
    @given(qformats())
    def test_saturate_clamps_out_of_range_to_the_exact_bounds(self, fmt):
        above = fmt.max_value * 4.0 + 1.0
        below = fmt.min_value * 4.0 - 1.0
        assert fmt.to_fixed(above).item() == fmt.max_int
        assert fmt.to_fixed(below).item() == fmt.min_int

    @settings(max_examples=100, deadline=None)
    @given(format_and_raws())
    def test_representation_round_trips_exactly(self, fmt_raws):
        fmt, raws = fmt_raws
        # int -> float -> int is lossless: every representation is a dyadic
        # rational that float64 stores exactly for word lengths <= 32.
        assert np.array_equal(fmt.to_fixed(fmt.to_float(raws)), raws)

    @settings(max_examples=100, deadline=None)
    @given(format_and_values())
    def test_quantize_is_idempotent(self, fmt_values):
        fmt, values = fmt_values
        once = _quantize(fmt, values)
        assert np.array_equal(_quantize(fmt, once), once)


class TestArithmeticClosure:
    @settings(max_examples=100, deadline=None)
    @given(format_and_raws())
    def test_add_closed_under_format(self, fmt_raws):
        fmt, raws = fmt_raws
        result = fx_add(raws, raws[::-1].copy(), fmt)
        assert np.all(result >= fmt.min_int)
        assert np.all(result <= fmt.max_int)

    @settings(max_examples=100, deadline=None)
    @given(format_and_raws())
    def test_mul_closed_under_format(self, fmt_raws):
        fmt, raws = fmt_raws
        result = fx_mul(raws, raws[::-1].copy(), fmt)
        assert np.all(result >= fmt.min_int)
        assert np.all(result <= fmt.max_int)

    @settings(max_examples=100, deadline=None)
    @given(format_and_raws())
    def test_mac_closed_under_format(self, fmt_raws):
        fmt, raws = fmt_raws
        result = fx_add(raws, fx_mul(raws, raws[::-1].copy(), fmt), fmt)
        assert np.all(result >= fmt.min_int)
        assert np.all(result <= fmt.max_int)

    @settings(max_examples=100, deadline=None)
    @given(format_and_raws())
    def test_add_commutes(self, fmt_raws):
        fmt, raws = fmt_raws
        other = raws[::-1].copy()
        assert np.array_equal(fx_add(raws, other, fmt), fx_add(other, raws, fmt))

    @settings(max_examples=100, deadline=None)
    @given(format_and_raws())
    def test_mul_by_one_is_identity(self, fmt_raws):
        fmt, raws = fmt_raws
        one = np.full_like(raws, fmt.scale)
        # (x * 2^f) >> f == x exactly, including negatives (arithmetic shift),
        # provided 1.0 itself is representable in the format.
        if fmt.scale <= fmt.max_int:
            assert np.array_equal(fx_mul(raws, one, fmt), raws)

    @settings(max_examples=100, deadline=None)
    @given(format_and_raws())
    def test_sub_self_is_zero_and_relu_clamps(self, fmt_raws):
        fmt, raws = fmt_raws
        assert np.all(fx_sub(raws, raws, fmt) == 0)
        relu = fx_relu(raws, fmt)
        assert np.all(relu >= 0)
        assert np.array_equal(fx_relu(relu, fmt), relu)


class TestFxArray:
    @settings(max_examples=100, deadline=None)
    @given(format_and_values())
    def test_from_float_round_trip_error_within_resolution(self, fmt_values):
        fmt, values = fmt_values
        arr = FxArray.from_float(values, fmt)
        assert float(np.max(np.abs(arr.to_float() - values))) <= 2.0 ** -fmt.fraction_bits

    @settings(max_examples=100, deadline=None)
    @given(format_and_raws())
    def test_astype_to_wider_format_is_lossless(self, fmt_raws):
        fmt, raws = fmt_raws
        arr = FxArray(raws, fmt)
        wider = QFormat(
            min(fmt.word_length + 8, 48), fmt.fraction_bits + 4
        )
        # More integer bits *and* more fraction bits: every value survives.
        widened = FxArray.from_float(arr.to_float(), wider)
        assert np.array_equal(widened.to_float(), arr.to_float())
