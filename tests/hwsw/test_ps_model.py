"""Tests for the PS software-execution-time model."""

from __future__ import annotations

import pytest

from repro.core import ExecutionTimeModel, layer_geometry
from repro.hwsw import SoftwareCostModel
from repro.hwsw.ps_model import PS_CYCLES_PER_ELEMENT, PS_CYCLES_PER_MAC, work_time_kernel


class TestSoftwareCostModel:
    def test_zero_work_costs_nothing(self):
        assert SoftwareCostModel().work_time(0, 0, 0) == 0.0

    def test_time_linear_in_macs(self):
        model = SoftwareCostModel()
        assert model.work_time(2_000_000) == pytest.approx(2 * model.work_time(1_000_000))

    def test_elementwise_term(self):
        # 0 cycles per MAC, 10 cycles per element, 1 MHz clock.
        assert work_time_kernel(0, 100, 2, 0.0, 10.0, 1e6) == pytest.approx(2e-3)

    def test_per_image_overhead(self):
        assert SoftwareCostModel().per_image_overhead() == pytest.approx(0.028)


class TestCalibrationAgainstResNetTotals:
    """The model's ResNet-N totals must track the four published values."""

    @pytest.mark.parametrize(
        "depth,published", [(20, 0.54), (32, 0.89), (44, 1.24), (56, 1.58)]
    )
    def test_resnet_totals(self, depth, published):
        report = ExecutionTimeModel().report("ResNet", depth)
        assert report.total_without_pl == pytest.approx(published, rel=0.05)

    def test_per_block_software_times_match_table5_ratios(self):
        """Per-execution software times derived from Table 5:
        layer1 ≈ 61.6 ms, layer2_2 ≈ 55.4 ms, layer3_2 ≈ 57.5 ms."""

        model = ExecutionTimeModel()
        assert model.software_layer_seconds("layer1") == pytest.approx(0.0616, rel=0.05)
        assert model.software_layer_seconds("layer2_2") == pytest.approx(0.0554, rel=0.08)
        assert model.software_layer_seconds("layer3_2") == pytest.approx(0.0575, rel=0.05)

    def test_layer1_is_slowest_repeated_block_in_software(self):
        """layer1 has the most feature-map elements, so its software time is
        the largest of the three repeated blocks (as Table 5 implies)."""

        model = ExecutionTimeModel()
        t1 = model.software_layer_seconds("layer1")
        t22 = model.software_layer_seconds("layer2_2")
        t32 = model.software_layer_seconds("layer3_2")
        assert t1 > t32 > 0
        assert t1 > t22 > 0

    def test_downsample_blocks_cheaper(self):
        model = ExecutionTimeModel()
        assert model.software_layer_seconds("layer2_1") < model.software_layer_seconds("layer2_2")

    def test_faster_clock_reduces_time(self):
        geom = layer_geometry("layer3_2")
        work = (geom.macs, geom.out_elements, 4, PS_CYCLES_PER_MAC, PS_CYCLES_PER_ELEMENT)
        assert work_time_kernel(*work, 1300e6) == pytest.approx(
            work_time_kernel(*work, 650e6) / 2
        )
