"""Tests for the Table-4 variant specifications."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SUPPORTED_DEPTHS,
    VARIANT_NAMES,
    BlockRealization,
    table4_rows,
    variant_spec,
)


class TestTable4Structure:
    """Spot checks of the stacked-blocks / executions-per-block formulae."""

    def test_resnet_56(self):
        spec = variant_spec("ResNet", 56)
        assert spec.plan("layer1").stacked_blocks == 9
        assert spec.plan("layer2_2").stacked_blocks == 8
        assert spec.plan("layer3_2").stacked_blocks == 8
        assert all(p.executions_per_block == 1 for p in spec)

    def test_odenet_56(self):
        spec = variant_spec("ODENet", 56)
        assert spec.plan("layer1").as_table_cell() == "1 / 9"
        assert spec.plan("layer2_2").as_table_cell() == "1 / 8"
        assert spec.plan("layer3_2").as_table_cell() == "1 / 8"

    def test_rodenet1_executions(self):
        # layer1 executed (N-6)/2 times; layer2_2 / layer3_2 removed.
        spec = variant_spec("rODENet-1", 20)
        assert spec.plan("layer1").as_table_cell() == "1 / 7"
        assert spec.plan("layer2_2").as_table_cell() == "0 / 0"
        assert spec.plan("layer3_2").as_table_cell() == "0 / 0"

    def test_rodenet2_executions(self):
        spec = variant_spec("rODENet-2", 32)
        assert spec.plan("layer1").as_table_cell() == "1 / 1"
        assert spec.plan("layer2_2").as_table_cell() == "1 / 12"
        assert spec.plan("layer3_2").as_table_cell() == "0 / 0"

    def test_rodenet12_executions(self):
        spec = variant_spec("rODENet-1+2", 44)
        assert spec.plan("layer1").as_table_cell() == "1 / 10"
        assert spec.plan("layer2_2").as_table_cell() == "1 / 9"

    def test_rodenet3_executions(self):
        spec = variant_spec("rODENet-3", 56)
        assert spec.plan("layer1").as_table_cell() == "1 / 1"
        assert spec.plan("layer2_2").as_table_cell() == "0 / 0"
        assert spec.plan("layer3_2").as_table_cell() == "1 / 24"

    def test_hybrid3(self):
        spec = variant_spec("Hybrid-3", 56)
        assert spec.plan("layer1").as_table_cell() == "9 / 1"
        assert spec.plan("layer2_2").as_table_cell() == "8 / 1"
        assert spec.plan("layer3_2").as_table_cell() == "1 / 8"

    def test_fixed_layers_always_once(self):
        for name in VARIANT_NAMES:
            spec = variant_spec(name, 44)
            for layer in ("conv1", "layer2_1", "layer3_1", "fc"):
                assert spec.plan(layer).as_table_cell() == "1 / 1"


class TestExecutionBudget:
    """The rODENet variants keep ResNet-N's total building-block executions."""

    @pytest.mark.parametrize("depth", SUPPORTED_DEPTHS)
    def test_total_executions_match_resnet(self, depth):
        baseline = variant_spec("ResNet", depth).total_block_executions
        for name in VARIANT_NAMES:
            assert variant_spec(name, depth).total_block_executions == baseline, name

    @pytest.mark.parametrize("depth", SUPPORTED_DEPTHS)
    def test_execution_counts_are_integers_and_positive(self, depth):
        for name in VARIANT_NAMES:
            for plan in variant_spec(name, depth):
                assert plan.stacked_blocks >= 0
                assert plan.executions_per_block >= 0
                if plan.realization != BlockRealization.REMOVED:
                    assert plan.total_executions >= 1


class TestRealizations:
    def test_ode_layers(self):
        def ode_layers(name):
            layers = variant_spec(name, 20).layers
            return [p.layer for p in layers if p.realization == BlockRealization.ODEBLOCK]

        assert ode_layers("ODENet") == ["layer1", "layer2_2", "layer3_2"]
        assert ode_layers("rODENet-3") == ["layer3_2"]
        assert ode_layers("ResNet") == []

    def test_removed_layers(self):
        def removed_layers(name):
            layers = variant_spec(name, 20).layers
            return [p.layer for p in layers if p.realization == BlockRealization.REMOVED]

        assert removed_layers("rODENet-1") == ["layer2_2", "layer3_2"]
        assert removed_layers("rODENet-3") == ["layer2_2"]
        assert removed_layers("Hybrid-3") == []

    def test_heavily_used_layers(self):
        assert variant_spec("rODENet-3", 56).heavily_used_layers() == ["layer3_2"]
        assert variant_spec("rODENet-1+2", 56).heavily_used_layers() == ["layer1", "layer2_2"]
        assert variant_spec("ResNet", 56).heavily_used_layers() == []


class TestValidationAndHelpers:
    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            variant_spec("DenseNet", 20)

    def test_case_insensitive_lookup(self):
        assert variant_spec("resnet", 20).name == "ResNet"
        assert variant_spec("rodenet-1+2", 20).name == "rODENet-1+2"

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            variant_spec("ResNet", 21)
        with pytest.raises(ValueError):
            variant_spec("ResNet", 14)

    def test_full_name_and_plan_lookup(self):
        spec = variant_spec("ODENet", 32)
        assert spec.full_name == "ODENet-32"
        with pytest.raises(KeyError):
            spec.plan("layer7")

    def test_table4_rows_shape(self):
        rows = table4_rows(56)
        assert set(rows) == {"conv1", "layer1", "layer2_1", "layer2_2", "layer3_1", "layer3_2", "fc"}
        assert rows["layer3_2"]["rODENet-3"] == "1 / 24"
        assert rows["layer1"]["ResNet"] == "9 / 1"

    @given(st.sampled_from(VARIANT_NAMES), st.sampled_from([20, 32, 44, 56, 68, 80]))
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_valid_depths(self, name, depth):
        spec = variant_spec(name, depth)
        assert spec.total_block_executions == variant_spec("ResNet", depth).total_block_executions

    def test_incompatible_depth_for_rodenet12_rejected(self):
        # 26 satisfies (N-2) % 6 == 0 but not the N % 4 == 0 requirement of
        # rODENet-1+2's execution split.
        with pytest.raises(ValueError, match="incompatible"):
            variant_spec("rODENet-1+2", 26)
