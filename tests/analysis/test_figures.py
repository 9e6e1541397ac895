"""Tests for the figure series generators."""

from __future__ import annotations

import pytest

from repro.analysis import figure5_series, figure6_series
from repro.core import SUPPORTED_DEPTHS, VARIANT_NAMES


class TestFigure5:
    def test_all_variants_and_depths_covered(self):
        series = figure5_series()
        assert set(series) == set(VARIANT_NAMES)
        for values in series.values():
            assert set(values) == set(SUPPORTED_DEPTHS)

    def test_resnet56_size(self):
        """ResNet-56 is ~3.4 MB of 32-bit parameters."""

        series = figure5_series()
        assert series["ResNet"][56] == pytest.approx(3435.5, rel=0.01)

    def test_reduction_consistent_with_section_42(self):
        series = figure5_series()
        reduction = 100 * (1 - series["rODENet-3"][56] / series["ResNet"][56])
        assert reduction == pytest.approx(81.80, abs=0.05)


class TestFigure6:
    def test_all_variants_covered(self):
        series = figure6_series()
        assert set(series) == set(VARIANT_NAMES)
        for values in series.values():
            assert set(values) == set(SUPPORTED_DEPTHS)

    def test_paper_only_subset(self):
        paper = figure6_series(paper_only=True)
        assert paper["ResNet"][20] == pytest.approx(68.02)
        assert "rODENet-1" not in paper or len(paper.get("rODENet-1", {})) == 0

    def test_resnet_highest_at_small_depths(self):
        series = figure6_series()
        for depth in (20, 32):
            best = max(series[v][depth] for v in VARIANT_NAMES)
            assert series["ResNet"][depth] == best
