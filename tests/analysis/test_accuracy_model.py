"""Tests for the calibrated accuracy model (Section 4.3)."""

from __future__ import annotations

import pytest

from repro.analysis import PAPER_ACCURACY, accuracy_model, accuracy_table
from repro.core import SUPPORTED_DEPTHS, VARIANT_NAMES


def accuracy_gap(variant: str, depth: int) -> float:
    """Accuracy loss of ``variant`` versus ResNet at the same depth (Section 4.3)."""

    return (
        accuracy_model("ResNet", depth).accuracy_percent
        - accuracy_model(variant, depth).accuracy_percent
    )


class TestQuotedValues:
    @pytest.mark.parametrize(
        "variant,depth,expected",
        [
            ("ResNet", 20, 68.02),
            ("ResNet", 32, 70.16),
            ("ResNet", 44, 70.74),
            ("ResNet", 56, 69.09),
            ("rODENet-3", 20, 62.54),
            ("rODENet-3", 32, 64.46),
            ("Hybrid-3", 44, 68.58),
            ("Hybrid-3", 56, 68.11),
        ],
    )
    def test_paper_quoted_accuracies(self, variant, depth, expected):
        point = accuracy_model(variant, depth)
        assert point.accuracy_percent == pytest.approx(expected)
        assert point.source == "paper"

    def test_quoted_gaps(self):
        """Section 4.3: 5.48-point gap at N=20, 5.70 at N=32 for rODENet-3;
        2.16-point worst-case gap for Hybrid-3; 0.98 at N=56."""
        assert accuracy_gap("rODENet-3", 20) == pytest.approx(5.48, abs=0.01)
        assert accuracy_gap("rODENet-3", 32) == pytest.approx(5.70, abs=0.01)
        assert accuracy_gap("Hybrid-3", 44) == pytest.approx(2.16, abs=0.01)
        assert accuracy_gap("Hybrid-3", 56) == pytest.approx(0.98, abs=0.01)


class TestQualitativeClaims:
    def test_full_coverage(self):
        covered = {(p.variant, p.depth) for p in PAPER_ACCURACY}
        assert covered == {(v, d) for v in VARIANT_NAMES for d in SUPPORTED_DEPTHS}

    def test_estimated_points_flagged(self):
        assert accuracy_model("rODENet-1", 44).source == "estimated"

    def test_rodenet3_second_highest_at_small_depths(self):
        """"the accuracy is the second highest next to that of ResNet-N when N
        is 20 and 32"."""

        for depth in (20, 32):
            values = sorted(
                ((accuracy_model(v, depth).accuracy_percent, v) for v in VARIANT_NAMES), reverse=True
            )
            assert values[0][1] == "ResNet"
            assert values[1][1] == "rODENet-3"

    def test_rodenet3_stable_everywhere(self):
        assert all(accuracy_model("rODENet-3", d).stable for d in SUPPORTED_DEPTHS)

    def test_odenet_unstable_at_small_depths(self):
        assert not accuracy_model("ODENet", 20).stable
        assert accuracy_model("ODENet", 56).stable

    def test_rodenet1_and_12_remain_unstable_at_56(self):
        assert not accuracy_model("rODENet-1", 56).stable
        assert not accuracy_model("rODENet-1+2", 56).stable

    def test_hybrid3_tracks_resnet_at_large_depths(self):
        for depth in (44, 56):
            gap = accuracy_gap("Hybrid-3", depth)
            assert gap <= 2.2

    def test_hybrid3_more_robust_to_depth_than_resnet(self):
        """ResNet drops 1.65 points from 44 to 56; Hybrid-3 only 0.47."""

        resnet_drop = accuracy_model("ResNet", 44).accuracy_percent - accuracy_model("ResNet", 56).accuracy_percent
        hybrid_drop = accuracy_model("Hybrid-3", 44).accuracy_percent - accuracy_model("Hybrid-3", 56).accuracy_percent
        assert resnet_drop == pytest.approx(1.65, abs=0.01)
        assert hybrid_drop == pytest.approx(0.47, abs=0.01)
        assert hybrid_drop < resnet_drop

    def test_unknown_configuration_raises(self):
        with pytest.raises(KeyError):
            accuracy_model("ResNet", 110)

    def test_accuracy_table_is_flat_dicts(self):
        table = accuracy_table()
        assert len(table) == len(PAPER_ACCURACY)
        assert {"variant", "N", "accuracy_percent", "stable", "source"} <= set(table[0])
