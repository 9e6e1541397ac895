"""Tests for the BRAM allocation planner."""

from __future__ import annotations

import pytest

from repro.fixedpoint import Q8, Q16, Q20
from repro.fpga import LAYER1, LAYER2_2, LAYER3_2, ZYNQ_XC7Z020, plan_block_allocation, tiles_for_bytes
from repro.fpga.bram import BRAM36_BYTES


class TestTilesForBytes:
    def test_zero_bytes_needs_no_tiles(self):
        assert tiles_for_bytes(0) == 0

    def test_exact_multiple(self):
        assert tiles_for_bytes(BRAM36_BYTES) == 1
        assert tiles_for_bytes(4 * BRAM36_BYTES) == 4

    def test_rounds_up(self):
        assert tiles_for_bytes(1) == 1
        assert tiles_for_bytes(BRAM36_BYTES + 1) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            tiles_for_bytes(-1)


class TestBlockAllocation:
    def test_plan_contains_expected_regions(self):
        plan = plan_block_allocation(LAYER3_2, n_units=16)
        names = {r.name for r in plan.regions}
        assert {"conv1_weights", "conv2_weights", "bn_parameters", "input_fmap", "intermediate_fmap", "output_fmap"} <= names

    def test_layer3_2_weights_dominate(self):
        plan = plan_block_allocation(LAYER3_2, n_units=16)
        weights = plan.region("conv1_weights").tiles + plan.region("conv2_weights").tiles
        fmaps = sum(r.tiles for r in plan.regions if r.name.endswith("fmap"))
        assert weights > fmaps

    def test_layer1_feature_maps_dominate(self):
        plan = plan_block_allocation(LAYER1, n_units=16)
        weights = plan.region("conv1_weights").tiles + plan.region("conv2_weights").tiles
        fmaps = sum(r.tiles for r in plan.regions if r.name.endswith("fmap"))
        assert fmaps > weights

    def test_all_single_layers_fit_in_device(self):
        for geom in (LAYER1, LAYER2_2, LAYER3_2):
            plan = plan_block_allocation(geom, n_units=16)
            assert plan.total_tiles <= ZYNQ_XC7Z020.bram36, geom.name

    def test_layer3_2_is_largest(self):
        totals = {g.name: plan_block_allocation(g).total_tiles for g in (LAYER1, LAYER2_2, LAYER3_2)}
        assert totals["layer3_2"] == max(totals.values())

    def test_total_bytes_consistent(self):
        plan = plan_block_allocation(LAYER2_2)
        assert plan.total_tiles == sum(r.tiles for r in plan.regions)

    def test_unknown_region_lookup_raises(self):
        plan = plan_block_allocation(LAYER1)
        with pytest.raises(KeyError):
            plan.region("nonexistent")

    def test_unknown_region_error_lists_available_names(self):
        plan = plan_block_allocation(LAYER1)
        with pytest.raises(KeyError) as excinfo:
            plan.region("nonexistent")
        message = str(excinfo.value)
        for name in ("conv1_weights", "conv2_weights", "bn_parameters", "input_fmap"):
            assert name in message

    def test_unknown_region_error_on_empty_plan(self):
        from repro.fpga import BramPlan

        with pytest.raises(KeyError, match=r"\(none\)"):
            BramPlan(block="empty").region("anything")

    def test_reduced_wordlength_reduces_tiles(self):
        """Footnote 2: 16-bit (or less) weights would fit more layers in BRAM."""

        full = plan_block_allocation(LAYER3_2, qformat=Q20).total_tiles
        half = plan_block_allocation(LAYER3_2, qformat=Q16).total_tiles
        quarter = plan_block_allocation(LAYER3_2, qformat=Q8).total_tiles
        assert full > half > quarter
