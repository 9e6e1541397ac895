"""Tests for the offload planner (Section 3.2 feasibility reasoning)."""

from __future__ import annotations

import pytest

from repro.core import OffloadPlanner
from repro.fpga import ZYNQ_XC7Z020


@pytest.fixture(scope="module")
def planner():
    return OffloadPlanner()


class TestTargetSelection:
    def test_paper_pairings(self, planner):
        assert planner.proposed_targets("rODENet-1", 56) == ("layer1",)
        assert planner.proposed_targets("rODENet-2", 56) == ("layer2_2",)
        assert planner.proposed_targets("rODENet-1+2", 56) == ("layer1", "layer2_2")
        assert planner.proposed_targets("rODENet-3", 56) == ("layer3_2",)
        assert planner.proposed_targets("ODENet-3", 56) == ("layer3_2",)
        assert planner.proposed_targets("Hybrid-3", 56) == ("layer3_2",)
        assert planner.proposed_targets("ResNet", 56) == ()

    def test_fallback_for_unlisted_variant_uses_heavy_layers(self, planner):
        # "ODENet" (not the Table-5 row name "ODENet-3") falls back to the
        # heavily-used ODEBlock layers.
        targets = planner.proposed_targets("ODENet", 56)
        assert set(targets) == {"layer1", "layer2_2", "layer3_2"}


class TestFeasibility:
    def test_section32_cases(self, planner):
        """All four Section-3.2 offload cases fit the XC7Z020."""

        cases = [("layer1",), ("layer2_2",), ("layer1", "layer2_2"), ("layer3_2",)]
        for targets in cases:
            assert planner.resources_for_targets(targets, n_units=16).fits(ZYNQ_XC7Z020)

    def test_plan_rodenet3(self, planner):
        decision = planner.plan("rODENet-3", 56)
        assert decision.fits_device and decision.meets_timing
        assert decision.targets == ("layer3_2",)
        assert decision.expected_speedup == pytest.approx(2.66, abs=0.1)
        assert decision.resources.fits(ZYNQ_XC7Z020)

    def test_plan_resnet_trivially_feasible(self, planner):
        decision = planner.plan("ResNet", 20)
        assert decision.fits_device and decision.meets_timing
        assert decision.targets == ()
        assert decision.expected_speedup == 1.0

    def test_conv_x32_plan_fails_timing(self, planner):
        decision = OffloadPlanner(n_units=32).plan("rODENet-3", 56)
        assert not decision.meets_timing

    def test_max_feasible_parallelism_is_16(self, planner):
        assert planner.max_feasible_parallelism(("layer3_2",)) == 16
        assert planner.max_feasible_parallelism(("layer1",)) == 16

    def test_layer1_parallelism_capped_by_channels(self, planner):
        # layer1 has 16 output channels, so 32/64 units are never considered.
        assert planner.max_feasible_parallelism(("layer1",)) == 16

    def test_resources_for_combined_targets_add_up(self, planner):
        single1 = planner.resources_for_targets(("layer1",))
        single2 = planner.resources_for_targets(("layer2_2",))
        combo = planner.resources_for_targets(("layer1", "layer2_2"))
        assert combo.dsp == single1.dsp + single2.dsp
        assert combo.bram == single1.bram + single2.bram
