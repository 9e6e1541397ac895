"""Tests for the vectorised FxArray type."""

from __future__ import annotations

import numpy as np

from repro.fixedpoint import FxArray, Q20


class TestConstruction:
    def test_from_float_roundtrip(self, rng):
        values = rng.uniform(-10, 10, size=(3, 4))
        arr = FxArray.from_float(values, Q20)
        np.testing.assert_allclose(arr.to_float(), values, atol=Q20.resolution)

    def test_shape_size_ndim_len(self):
        arr = FxArray(np.zeros((4, 5)))
        assert arr.shape == (4, 5) and arr.ndim == 2


class TestElementwise:
    def test_relu(self):
        a = FxArray.from_float(np.array([-1.0, 2.0]))
        np.testing.assert_allclose(a.relu().to_float(), [0.0, 2.0])
