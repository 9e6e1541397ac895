"""Tests for the PL cycle model — calibrated against the paper's numbers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpga import (
    LAYER1,
    LAYER2_2,
    LAYER3_2,
    PAPER_LAYER3_2_CYCLES,
    OdeBlockCycleModel,
)


class TestPaperCalibration:
    """Section 3.1 publishes layer3_2 cycle counts for conv_x1..x32."""

    @pytest.mark.parametrize("n_units,published", sorted(PAPER_LAYER3_2_CYCLES.items()))
    def test_layer3_2_cycles_match_paper(self, n_units, published):
        model = OdeBlockCycleModel()
        predicted = model.block_cycles(LAYER3_2, n_units).total
        assert predicted == pytest.approx(published, rel=0.02)

    def test_cycles_inverse_proportional_to_units(self):
        """"Their execution cycles (except for the batch normalization)
        decrease in inverse proportion to the number of multiply-add units."""

        model = OdeBlockCycleModel()
        conv1 = model.conv_cycles(LAYER3_2, 1)
        conv16 = model.conv_cycles(LAYER3_2, 16)
        assert conv1 / conv16 == pytest.approx(16.0)

    def test_bn_cycles_independent_of_units(self):
        model = OdeBlockCycleModel()
        assert model.bn_cycles(LAYER3_2) == model.bn_cycles(LAYER3_2)
        b = model.block_cycles(LAYER3_2, 1).bn_cycles
        b16 = model.block_cycles(LAYER3_2, 16).bn_cycles
        assert b == b16

    def test_conv_x16_layer3_2_time_at_100mhz(self):
        """~16.5 ms per execution, consistent with Table 5 (0.40 s / 24)."""

        model = OdeBlockCycleModel()
        seconds = model.block_time_seconds(LAYER3_2, 16)
        assert seconds == pytest.approx(0.0165, rel=0.03)

    def test_conv_x16_layer1_time_at_100mhz(self):
        """~22 ms per execution, consistent with Table 5 (0.55 s / 25)."""

        model = OdeBlockCycleModel()
        seconds = model.block_time_seconds(LAYER1, 16)
        assert seconds == pytest.approx(0.022, rel=0.05)

    def test_conv_x16_layer2_2_time_at_100mhz(self):
        """~18 ms per execution, consistent with Table 5 (0.44 s / 24)."""

        model = OdeBlockCycleModel()
        seconds = model.block_time_seconds(LAYER2_2, 16)
        assert seconds == pytest.approx(0.0183, rel=0.05)


class TestModelStructure:
    def test_effective_units_capped_by_channels(self):
        """Parallelism "is also restricted by the number of output channels"."""

        model = OdeBlockCycleModel()
        assert model.effective_units(LAYER1, 32) == 16
        assert model.effective_units(LAYER1, 64) == 16
        assert model.effective_units(LAYER3_2, 32) == 32

    def test_invalid_units_rejected(self):
        with pytest.raises(ValueError):
            OdeBlockCycleModel().effective_units(LAYER1, 0)

    def test_breakdown_total_is_sum(self):
        breakdown = OdeBlockCycleModel().block_cycles(LAYER2_2, 8)
        assert breakdown.total == pytest.approx(
            breakdown.conv_cycles + breakdown.bn_cycles
        )

    def test_bn_share_grows_with_parallelism(self):
        """With more MAC units, BN becomes the larger share (Amdahl)."""

        model = OdeBlockCycleModel()
        share_1 = model.block_cycles(LAYER3_2, 1).bn_cycles / model.block_cycles(LAYER3_2, 1).total
        share_32 = model.block_cycles(LAYER3_2, 32).bn_cycles / model.block_cycles(LAYER3_2, 32).total
        assert share_32 > share_1

    @given(st.sampled_from([1, 2, 4, 8, 16]), st.sampled_from(["layer1", "layer2_2", "layer3_2"]))
    @settings(max_examples=30, deadline=None)
    def test_more_units_never_slower(self, n, layer_name):
        from repro.fpga import block_geometry

        geom = block_geometry(layer_name)
        model = OdeBlockCycleModel()
        assert model.block_cycles(geom, n * 2).total <= model.block_cycles(geom, n).total
