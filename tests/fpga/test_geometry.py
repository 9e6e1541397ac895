"""Tests for the offloadable block geometries."""

from __future__ import annotations

import pytest

from repro.fpga import LAYER1, LAYER2_2, LAYER3_2, OFFLOADABLE_BLOCKS, block_geometry
from repro.fpga.geometry import KERNEL, NUM_BATCH_NORMS, NUM_CONVS, STRIDE


class TestBlockGeometries:
    def test_paper_shapes(self):
        """Section 3.1: channels 16/32/64, feature maps 32x32 / 16x16 / 8x8."""

        assert (LAYER1.in_channels, LAYER1.height) == (16, 32)
        assert (LAYER2_2.in_channels, LAYER2_2.height) == (32, 16)
        assert (LAYER3_2.in_channels, LAYER3_2.height) == (64, 8)
        assert KERNEL == 3 and STRIDE == 1
        assert NUM_CONVS == 2 and NUM_BATCH_NORMS == 2

    def test_all_blocks_have_equal_macs(self):
        """Channel doubling exactly offsets the spatial halving."""

        assert LAYER1.total_macs == LAYER2_2.total_macs == LAYER3_2.total_macs
        assert LAYER3_2.total_macs == 2 * 64 * 64 * 9 * 8 * 8

    def test_output_elements(self):
        assert LAYER1.output_elements == 16 * 32 * 32
        assert LAYER2_2.output_elements == 32 * 16 * 16
        assert LAYER3_2.output_elements == 64 * 8 * 8

    def test_bn_elements_double_output(self):
        for geom in OFFLOADABLE_BLOCKS.values():
            assert geom.bn_elements == 2 * geom.output_elements

    def test_weight_counts(self):
        assert LAYER3_2.weight_count == 2 * 64 * 64 * 9
        assert LAYER3_2.bn_parameter_count == 4 * 64 * 2

    def test_lookup(self):
        assert block_geometry("layer1") is LAYER1
        with pytest.raises(KeyError):
            block_geometry("layer9")

    def test_strided_geometry_out_size(self):
        # Every block runs at STRIDE 1, so the output keeps the input's
        # feature-map size even where the channel count changes, and a
        # geometry cannot be given another stride.
        from repro.fpga.geometry import BlockGeometry

        geom = BlockGeometry("ds", 16, 32, 32, 32)
        assert geom.output_elements == 32 * 32 * 32
        with pytest.raises(TypeError, match="stride"):
            BlockGeometry("ds", 16, 32, 32, 32, stride=2)
