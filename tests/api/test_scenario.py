"""Scenario validation and grid construction."""

from __future__ import annotations

import pytest

from repro.api import DEFAULT_FRACTION_BITS, SCENARIO_MODELS, Scenario, scenario_grid
from repro.core import SUPPORTED_DEPTHS, TABLE5_MODELS


class TestValidation:
    def test_defaults_are_the_papers_headline_design(self):
        s = Scenario()
        assert s.model == "rODENet-3"
        assert s.depth == 56
        assert s.n_units == 16
        assert s.qformat.word_length == 32 and s.qformat.fraction_bits == 20
        assert s.solver == "euler"
        assert s.pl_clock_hz == 100e6

    def test_model_names_are_canonicalised(self):
        assert Scenario(model="rodenet-3").model == "rODENet-3"
        assert Scenario(model="odenet-3").model == "ODENet-3"

    def test_unknown_model_raises(self):
        with pytest.raises(ValueError, match="unknown model"):
            Scenario(model="VGG")

    @pytest.mark.parametrize("depth", [7, 19, 21, 55])
    def test_bad_depth_raises(self, depth):
        with pytest.raises(ValueError):
            Scenario(depth=depth)

    def test_depth_incompatible_with_variant_budget_raises(self):
        # rODENet-1+2 needs the execution budget to split evenly across two
        # ODEBlocks; N=26 satisfies the family divisibility but not the split.
        with pytest.raises(ValueError):
            Scenario(model="rODENet-1+2", depth=26)

    @pytest.mark.parametrize("n_units", [0, -1])
    def test_bad_n_units_raises(self, n_units):
        with pytest.raises(ValueError, match="n_units"):
            Scenario(n_units=n_units)

    def test_oversized_n_units_allowed(self):
        # The seed CLI accepted any positive count (the cycle model caps
        # effective parallelism by the output channels); keep that behavior.
        assert Scenario(n_units=128).n_units == 128

    def test_bad_qformat_raises(self):
        with pytest.raises(ValueError):
            Scenario(word_length=16, fraction_bits=16)

    def test_unknown_solver_raises(self):
        with pytest.raises(ValueError, match="solver"):
            Scenario(solver="adams-bashforth")

    def test_unknown_board_raises(self):
        with pytest.raises(ValueError, match="board"):
            Scenario(board="ZCU102")

    def test_scenario_is_hashable_and_comparable(self):
        assert Scenario() == Scenario()
        assert hash(Scenario()) == hash(Scenario())
        assert Scenario() != Scenario(depth=20)
        assert len({Scenario(), Scenario(), Scenario(n_units=8)}) == 2


class TestDerivedViews:
    def test_variant_maps_odenet3_row(self):
        assert Scenario(model="ODENet-3").variant == "ODENet"
        assert Scenario(model="ResNet").variant == "ResNet"

    def test_solver_stages(self):
        assert Scenario(solver="euler").solver_stages == 1
        assert Scenario(solver="rk4").solver_stages == 4

    def test_replace_revalidates(self):
        s = Scenario().replace(depth=20)
        assert s.depth == 20
        with pytest.raises(ValueError):
            Scenario().replace(n_units=0)


class TestGrid:
    def test_default_grid_covers_table5(self):
        grid = scenario_grid()
        assert len(grid) == len(TABLE5_MODELS) * len(SUPPORTED_DEPTHS)

    def test_grid_order_is_deterministic(self):
        grid = scenario_grid(models=("ResNet", "rODENet-3"), depths=(20, 56), n_units=(8, 16))
        assert [s.full_name for s in grid[:4]] == ["ResNet-20"] * 2 + ["ResNet-56"] * 2
        assert [s.n_units for s in grid[:4]] == [8, 16, 8, 16]
        assert grid == scenario_grid(
            models=("ResNet", "rODENet-3"), depths=(20, 56), n_units=(8, 16)
        )

    def test_grid_maps_conventional_fraction_bits(self):
        grid = scenario_grid(models=("rODENet-3",), depths=(56,), word_lengths=(32, 16, 8))
        assert [(s.word_length, s.fraction_bits) for s in grid] == [
            (32, DEFAULT_FRACTION_BITS[32]),
            (16, DEFAULT_FRACTION_BITS[16]),
            (8, DEFAULT_FRACTION_BITS[8]),
        ]

    def test_grid_rejects_unconventional_wordlength_without_fraction(self):
        with pytest.raises(ValueError, match="fraction"):
            scenario_grid(word_lengths=(24,))
        assert scenario_grid(
            models=("rODENet-3",), depths=(56,), word_lengths=(24,), fraction_bits=12
        )[0].fraction_bits == 12

    def test_scenario_models_superset(self):
        assert set(TABLE5_MODELS) <= set(SCENARIO_MODELS)
