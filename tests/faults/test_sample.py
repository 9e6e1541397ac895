"""Property tests of fault-scenario time sampling (fmdtools-style)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import SAMPLING_METHODS, injection_times

horizons = st.floats(min_value=1e-3, max_value=1e5, allow_nan=False, allow_infinity=False)
counts = st.integers(min_value=1, max_value=12)
methods = st.sampled_from(SAMPLING_METHODS)


@settings(max_examples=200, deadline=None)
@given(horizons, counts, methods)
def test_weights_sum_to_one(horizon, n, method):
    _, weights = injection_times(horizon, n, method)
    assert len(weights) == n
    assert sum(weights) == pytest.approx(1.0)
    assert all(w > 0 for w in weights)


@settings(max_examples=200, deadline=None)
@given(horizons, counts, methods)
def test_times_lie_strictly_inside_the_horizon(horizon, n, method):
    times, _ = injection_times(horizon, n, method)
    assert len(times) == n
    assert all(0.0 < t < horizon for t in times)
    # Sorted, distinct nodes for either rule.
    assert times == sorted(times)
    assert len(set(times)) == n


class TestSamplingRules:
    def test_even_is_the_midpoint_rule(self):
        times, weights = injection_times(10.0, 4, "even")
        assert times == [1.25, 3.75, 6.25, 8.75]
        assert weights == [0.25] * 4

    def test_quadrature_single_node_is_the_midpoint(self):
        times, weights = injection_times(10.0, 1, "quadrature")
        assert times == [pytest.approx(5.0)]
        assert weights == [pytest.approx(1.0)]

    def test_quadrature_integrates_a_cubic_exactly(self):
        # n Gauss-Legendre nodes are exact up to degree 2n-1; with n=2 the
        # weighted sum of t^3 over [0, h] must equal the true mean h^3/4.
        times, weights = injection_times(2.0, 2, "quadrature")
        estimate = sum(w * t**3 for t, w in zip(times, weights))
        assert estimate == pytest.approx(2.0**3 / 4.0)


class TestValidation:
    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon_s"):
            injection_times(0.0)

    def test_bad_count_rejected(self):
        with pytest.raises(ValueError, match="n_samples"):
            injection_times(1.0, 0)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="sampling method"):
            injection_times(1.0, 3, "sobol")
