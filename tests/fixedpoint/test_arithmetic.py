"""Tests for the integer fixed-point arithmetic primitives."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fixedpoint import Q8, Q20, QFormat
from repro.fixedpoint.arithmetic import (
    fx_add,
    fx_div,
    fx_mean,
    fx_mul,
    fx_relu,
    fx_sqrt,
    fx_sub,
    fx_var,
)

F = Q20


def to_fx(x):
    return F.to_fixed(x)


def to_float(x):
    return F.to_float(x)


class TestBasicOps:
    def test_add_sub(self):
        a, b = to_fx(1.5), to_fx(2.25)
        assert to_float(fx_add(a, b, F)) == pytest.approx(3.75)
        assert to_float(fx_sub(a, b, F)) == pytest.approx(-0.75)

    def test_mul(self):
        a, b = to_fx(1.5), to_fx(-2.0)
        assert to_float(fx_mul(a, b, F)) == pytest.approx(-3.0, abs=F.resolution)

    def test_mul_truncation_error_bounded(self, rng):
        values_a = rng.uniform(-10, 10, 200)
        values_b = rng.uniform(-10, 10, 200)
        result = to_float(fx_mul(to_fx(values_a), to_fx(values_b), F))
        np.testing.assert_allclose(result, values_a * values_b, atol=3e-5)

    def test_mac(self):
        acc = to_fx(1.0)
        out = fx_add(acc, fx_mul(to_fx(2.0), to_fx(3.0), F), F)
        assert to_float(out) == pytest.approx(7.0, abs=F.resolution)

    def test_add_saturates(self):
        out = fx_add(F.max_int, F.max_int, F)
        assert out == F.max_int

    def test_div(self):
        out = fx_div(to_fx(3.0), to_fx(2.0), F)
        assert to_float(out) == pytest.approx(1.5, abs=F.resolution)

    def test_div_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            fx_div(to_fx(1.0), 0, F)

    def test_div_sign_handling(self):
        assert to_float(fx_div(to_fx(-3.0), to_fx(2.0), F)) == pytest.approx(-1.5, abs=2 * F.resolution)
        assert to_float(fx_div(to_fx(3.0), to_fx(-2.0), F)) == pytest.approx(-1.5, abs=2 * F.resolution)

    def test_relu(self):
        values = to_fx(np.array([-1.0, 0.0, 2.5]))
        np.testing.assert_allclose(to_float(fx_relu(values, F)), [0.0, 0.0, 2.5])


class TestSqrt:
    @pytest.mark.parametrize("value", [0.0, 1.0, 2.0, 4.0, 100.0, 0.25, 1e-3])
    def test_matches_float_sqrt(self, value):
        result = to_float(fx_sqrt(to_fx(value), F))
        # The input is quantised before the square root, so the error bound
        # includes the quantisation error amplified by d(sqrt)/dx = 1/(2*sqrt).
        tolerance = 2 * F.resolution
        if value > 0:
            tolerance += F.resolution / (2.0 * np.sqrt(value))
        assert result == pytest.approx(np.sqrt(value), abs=tolerance)

    def test_vectorised(self, rng):
        values = rng.uniform(0, 50, size=32)
        result = to_float(fx_sqrt(to_fx(values), F))
        np.testing.assert_allclose(result, np.sqrt(values), atol=1e-4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fx_sqrt(to_fx(-1.0), F)

    @given(st.floats(0, 1000, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_sqrt_squared_close_to_input(self, value):
        root = fx_sqrt(to_fx(value), F)
        squared = to_float(fx_mul(root, root, F))
        assert squared == pytest.approx(value, abs=max(4 * F.resolution, 4 * F.resolution * np.sqrt(value)))


def exact_sqrt(values, fmt):
    """The RTL ``isqrt64`` semantics: floor sqrt of ``v << f``, saturated."""

    return [min(math.isqrt(int(v) << fmt.fraction_bits), fmt.max_int) for v in values]


@st.composite
def qformats(draw):
    word_length = draw(st.integers(4, 64))
    return QFormat(word_length, draw(st.integers(0, word_length - 1)))


class TestSqrtConformance:
    """fx_sqrt is the exact floor isqrt on both sides of the 2**52 float split."""

    @given(qformats(), st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=16))
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_isqrt_any_input(self, fmt, values):
        assert fx_sqrt(np.array(values), fmt).tolist() == exact_sqrt(values, fmt)

    @given(qformats(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_isqrt_representable_input(self, fmt, data):
        values = data.draw(st.lists(st.integers(0, fmt.max_int), min_size=1, max_size=16))
        assert fx_sqrt(np.array(values), fmt).tolist() == exact_sqrt(values, fmt)

    def test_every_format_at_the_float_split(self):
        """Radicands just below, at and above 2**52 for every (word, fraction) pair."""

        for word_length in range(4, 65):
            for fraction_bits in range(word_length):
                fmt = QFormat(word_length, fraction_bits)
                split = ((1 << 52) - 1) >> fraction_bits
                values = [v for v in (0, 1, split - 1, split, split + 1, fmt.max_int) if v >= 0]
                assert fx_sqrt(np.array(values), fmt).tolist() == exact_sqrt(values, fmt)

    def test_perfect_square_boundaries_past_2_26(self):
        """k**2 - 1, k**2 and k**2 + 1 for k up to and past 2**26 (radicand 2**52)."""

        fmt = QFormat(64, 0)
        rng = np.random.default_rng(0)
        ks = set(range(1, 2048))
        ks |= set(range(2**26 - 512, 2**26 + 512))
        ks |= {2**j + d for j in range(1, 31) for d in (-1, 0, 1)}
        ks |= {int(k) for k in rng.integers(2**20, 2**31, size=2000)}
        ks = sorted(ks)
        values = [k * k + d for k in ks for d in (-1, 0, 1)]
        result = fx_sqrt(np.array(values), fmt).tolist()
        expected = [k - 1 if d < 0 else k for k in ks for d in (-1, 0, 1)]
        assert result == expected
        assert max(values) > 2**52 > min(values)

    @pytest.mark.parametrize(
        "value, shape",
        [
            (7, ()),
            (np.int64(7), ()),
            (np.array(7), ()),
            (np.array([7]), (1,)),
            (np.arange(24).reshape(2, 3, 4), (2, 3, 4)),
            (np.zeros((0, 3), dtype=np.int64), (0, 3)),
        ],
    )
    def test_shape_and_dtype_preserved(self, value, shape):
        out = fx_sqrt(value, F)
        assert isinstance(out, np.ndarray)
        assert out.shape == shape and out.dtype == np.int64

    def test_wide_path_keeps_shape(self):
        fmt = QFormat(64, 40)
        values = np.array([[0, 1 << 40], [1 << 50, 3]])
        out = fx_sqrt(values, fmt)
        assert out.shape == (2, 2) and out.dtype == np.int64
        assert out.tolist() == [exact_sqrt(row, fmt) for row in values.tolist()]

    def test_negative_rejected_on_both_paths(self):
        with pytest.raises(ValueError):
            fx_sqrt(np.array([4, -1]), F)
        with pytest.raises(ValueError):
            fx_sqrt(np.array([1 << 50, -1]), QFormat(64, 40))


class TestStatistics:
    def test_mean_matches_float(self, rng):
        values = rng.uniform(-5, 5, size=(4, 100))
        result = to_float(fx_mean(to_fx(values), F, axis=1))
        np.testing.assert_allclose(result, values.mean(axis=1), atol=1e-4)

    def test_mean_global(self, rng):
        values = rng.uniform(-5, 5, size=50)
        assert to_float(fx_mean(to_fx(values), F)) == pytest.approx(values.mean(), abs=1e-4)

    def test_var_matches_float(self, rng):
        values = rng.uniform(-2, 2, size=(3, 200))
        result = to_float(fx_var(to_fx(values), F, axis=1))
        np.testing.assert_allclose(result, values.var(axis=1), atol=1e-3)

    def test_var_nonnegative(self, rng):
        values = rng.uniform(-1, 1, size=(5, 64))
        assert np.all(fx_var(to_fx(values), F, axis=1) >= 0)


class TestLowPrecisionBehaviour:
    def test_q8_coarser_than_q20(self):
        value = 1.2345
        err8 = abs(Q8.to_float(fx_mul(Q8.to_fixed(value), Q8.to_fixed(value), Q8)) - value ** 2)
        err20 = abs(to_float(fx_mul(to_fx(value), to_fx(value), F)) - value ** 2)
        assert err8 > err20

    @given(st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_mul_commutative(self, a, b):
        x, y = to_fx(a), to_fx(b)
        assert fx_mul(x, y, F) == fx_mul(y, x, F)

    @given(st.floats(-100, 100, allow_nan=False), st.floats(-100, 100, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_add_matches_float_within_lsb(self, a, b):
        result = to_float(fx_add(to_fx(a), to_fx(b), F))
        assert result == pytest.approx(a + b, abs=2 * F.resolution)
