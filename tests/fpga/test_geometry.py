"""Tests for the offloadable block geometries."""

from __future__ import annotations

import pytest

from repro.fpga import LAYER1, LAYER2_2, LAYER3_2, OFFLOADABLE_BLOCKS, block_geometry


class TestBlockGeometries:
    def test_paper_shapes(self):
        """Section 3.1: channels 16/32/64, feature maps 32x32 / 16x16 / 8x8."""

        assert (LAYER1.in_channels, LAYER1.height) == (16, 32)
        assert (LAYER2_2.in_channels, LAYER2_2.height) == (32, 16)
        assert (LAYER3_2.in_channels, LAYER3_2.height) == (64, 8)
        for geom in (LAYER1, LAYER2_2, LAYER3_2):
            assert geom.kernel == 3 and geom.stride == 1
            assert geom.num_convs == 2 and geom.num_batch_norms == 2

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
        from repro.fpga.geometry import BlockGeometry

        strided = BlockGeometry("ds", 16, 32, 32, 32, stride=2)
        assert strided.out_height == 16 and strided.out_width == 16
        assert strided.output_elements == 32 * 16 * 16
