"""Scenario validation and grid construction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    DEFAULT_FRACTION_BITS, SCENARIO_MODELS, Scenario, fraction_bits_for, scenario_grid,
)
from repro.cli import main
from repro.core import SUPPORTED_DEPTHS, TABLE5_MODELS
from repro.fixedpoint import QFormat


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


def one_at_a_time(models, depths, n_units, word_lengths, fraction_bits, solvers, boards,
                  qformats=None, **common):
    """The grid a per-point ``Scenario(...)`` loop builds, or the text of the
    first failing row's ``ValueError``."""

    board_kws = [{}] if boards is None else [{"board": board} for board in boards]
    try:
        formats = ([(q.word_length, q.fraction_bits) for q in map(QFormat.parse, qformats)]
                   if qformats is not None
                   else [(wl, fraction_bits_for(wl, fraction_bits)) for wl in word_lengths])
        return [
            Scenario(model=m, depth=d, n_units=u, word_length=wl, fraction_bits=fb, solver=s,
                     **board_kw, **common)
            for m in models for d in depths for u in n_units for wl, fb in formats
            for s in solvers for board_kw in board_kws
        ]
    except ValueError as exc:
        return str(exc)


def grid_or_error(**axes):
    try:
        return scenario_grid(**axes)
    except ValueError as exc:
        return str(exc)


def axis(values):
    return st.lists(st.sampled_from(values), min_size=1, max_size=2)


MODEL_NAMES = [*SCENARIO_MODELS, *(name.lower() for name in SCENARIO_MODELS)]
BOARD_NAMES = ["PYNQ-Z2", "pynq_z2", "zcu104", "Ultra96-V2", "Zybo-Z7-20", "nope"]


class TestGridEquivalence:
    """``scenario_grid`` validates each axis value once; the rows and the
    errors are still those of building every point on its own."""

    @settings(max_examples=120, deadline=None)
    @given(
        models=axis(MODEL_NAMES),
        depths=axis([*SUPPORTED_DEPTHS, 57]),
        n_units=axis([0, 1, 4, 16, 33]),
        word_lengths=axis([32, 16, 12, 8]),
        fraction_bits=st.sampled_from([None, None, 4, 8]),
        qformats=st.none() | axis(["16:8", (32, 20), QFormat(12, 6), "8:7"]),
        solvers=axis(["euler", "RK4", "heun", "foo"]),
        boards=st.none() | axis(BOARD_NAMES),
        common=st.sampled_from(
            [{}, {"pl_clock_hz": 50e6}, {"pl_clock_hz": 0}, {"board": "zcu104"}]
        ),
    )
    def test_grid_matches_point_by_point(self, models, depths, n_units, word_lengths,
                                         fraction_bits, qformats, solvers, boards, common):
        if boards is not None:
            common = {k: v for k, v in common.items() if k != "board"}
        if qformats is not None:
            fraction_bits = None  # the two are exclusive
        axes = dict(models=models, depths=depths, n_units=n_units, word_lengths=word_lengths,
                    fraction_bits=fraction_bits, qformats=qformats, solvers=solvers,
                    boards=boards)
        expected = one_at_a_time(**axes, **common)
        got = grid_or_error(**axes, **common)
        assert got == expected
        if isinstance(expected, list):
            assert all(type(s) is Scenario for s in got)
            assert [hash(s) for s in got] == [hash(s) for s in expected]
            assert [s.as_dict() for s in got] == [s.as_dict() for s in expected]

    def test_explicit_qformats_and_clock(self):
        got = scenario_grid(models=("rodenet-3",), depths=(20,), qformats=("16:8", (32, 20)),
                            boards=("pynq_z2", "zcu104"), pl_clock_hz=125e6)
        expected = one_at_a_time(["rODENet-3"], [20], [16], [16, 32], None, ["euler"],
                                 ["PYNQ-Z2", "ZCU104"], pl_clock_hz=125e6)
        assert got == expected
        assert [s.as_dict() for s in got] == [s.as_dict() for s in expected]
        assert {s.board for s in got} == {"PYNQ-Z2", "ZCU104"}

    BAD_AXES = [
        pytest.param(dict(depths=[20, 57]), "unsupported depth N=57", id="depth-57"),
        pytest.param(dict(n_units=[8, 0]), "n_units must be a positive integer (got 0)",
                     id="n_units-0"),
        pytest.param(dict(word_lengths=[16, 7]), "no conventional fraction length for a 7-bit",
                     id="wordlength-7"),
        pytest.param(dict(word_lengths=[16], fraction_bits=16), "fraction_bits must satisfy",
                     id="fraction-bits-16"),
        pytest.param(dict(solvers=["euler", "foo"]), "unknown solver 'foo'", id="solver-foo"),
        pytest.param(dict(boards=["PYNQ-Z2", "nope"]), "unknown board 'nope'", id="board-nope"),
        # Two bad axes: the inner axis's bad value comes first in row order.
        pytest.param(dict(depths=[20, 57], n_units=[0]), "n_units must be a positive",
                     id="depth-and-n_units"),
    ]

    BASE_AXES = dict(models=["rODENet-3", "ResNet"], depths=[20], n_units=[8],
                     word_lengths=[32], fraction_bits=None, solvers=["euler"], boards=None)
    FLAGS = {"models": "--models", "depths": "--depths", "n_units": "--n-units",
             "word_lengths": "--wordlengths", "fraction_bits": "--fraction-bits",
             "solvers": "--solvers", "boards": "--boards"}

    @pytest.mark.parametrize("bad, text", BAD_AXES)
    def test_bad_axis_value_gives_the_first_failing_rows_error(self, bad, text):
        axes = {**self.BASE_AXES, **bad}
        expected = one_at_a_time(**axes)
        assert isinstance(expected, str) and text in expected
        assert grid_or_error(**axes) == expected

    @pytest.mark.parametrize("bad, text", BAD_AXES)
    def test_sweep_exits_2_with_that_error(self, capsys, bad, text):
        axes = {**self.BASE_AXES, **bad}
        argv = ["sweep"]
        for key, values in axes.items():
            if values is not None:
                argv += [self.FLAGS[key], *map(str, values if isinstance(values, list) else [values])]
        if "solvers" in bad:
            # The flag's choices refuse an unknown solver before a grid is built.
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "invalid choice: 'foo'" in capsys.readouterr().err
            return
        assert main(argv) == 2
        assert f"error: {one_at_a_time(**axes)}\n" in capsys.readouterr().err
