"""Batch-evaluation engine: loop-engine equivalence, Pareto, subclass rows."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.api import (
    BatchResult,
    Evaluator,
    Scenario,
    pareto_indices,
    scenario_grid,
    sweep,
    sweep_batch,
)
from repro.analysis import Report, csv_text, strict_json
from repro.api.batch import FLAT_COLUMNS, _Coded
from repro.core import SUPPORTED_DEPTHS
from repro.core.execution_model import TABLE5_MODELS


class PassthroughScenario(Scenario):
    """A Scenario subclass: evaluated from its Scenario fields like any row."""


def random_grid(n: int, seed: int = 0) -> list:
    """A random sample of the full design space (incl. solver/clock axes)."""

    rng = np.random.default_rng(seed)
    scenarios = []
    for _ in range(n):
        word_length, fraction_bits = [(32, 20), (16, 8), (12, 6), (8, 4)][rng.integers(4)]
        scenarios.append(
            Scenario(
                model=TABLE5_MODELS[rng.integers(len(TABLE5_MODELS))],
                depth=SUPPORTED_DEPTHS[rng.integers(len(SUPPORTED_DEPTHS))],
                n_units=int(rng.choice([1, 2, 4, 8, 16, 32, 64])),
                word_length=word_length,
                fraction_bits=fraction_bits,
                solver=str(rng.choice(["euler", "rk4"])),
                pl_clock_hz=float(rng.choice([50e6, 100e6, 142e6])),
            )
        )
    return scenarios


class TestEquivalence:
    """The regression net for the vectorization refactor."""

    def test_batch_equals_loop_on_random_grid_field_for_field(self):
        grid = random_grid(100, seed=42)
        loop = sweep(grid, Evaluator())
        batch = sweep_batch(grid)
        assert batch.to_results() == loop  # exact Result equality, every field

    def test_batch_equals_loop_on_structured_grid(self):
        grid = scenario_grid(
            models=TABLE5_MODELS,
            depths=SUPPORTED_DEPTHS,
            n_units=(4, 16),
            word_lengths=(16, 32),
        )
        assert len(grid) >= 100
        loop = sweep(grid, Evaluator())
        batch = sweep_batch(grid)
        assert batch.to_results() == loop

    def test_csv_and_json_are_byte_identical_to_loop(self):
        grid = scenario_grid(models=("rODENet-3", "ResNet"), depths=(20, 56), n_units=(8, 16))
        loop = sweep(grid, Evaluator())
        batch = sweep_batch(grid)
        flat = [r.flat_dict() for r in loop]
        assert batch.to_csv() == csv_text([flat[0].keys(), *(row.values() for row in flat)])
        assert batch.to_json() == strict_json([r.as_dict() for r in loop])

    def test_records_match_loop_flat_dicts(self):
        grid = scenario_grid(models=("ODENet", "Hybrid-3"), depths=(20, 44), solvers=("rk4",))
        loop = sweep(grid, Evaluator())
        batch = sweep_batch(grid)
        assert batch.records() == [r.flat_dict() for r in loop]

    def test_records_equal_row_by_row_views(self):
        # records()/to_csv() convert whole columns; record(i) indexes one row.
        batch = sweep_batch(random_grid(30, seed=3))
        assert batch.records() == [batch.record(i) for i in range(len(batch))]
        taken = batch.take([5, 0, 5])
        assert taken.records() == [batch.record(5), batch.record(0), batch.record(5)]

    def test_to_json_is_strict_on_non_finite_cells(self):
        grid = scenario_grid(models=("rODENet-3",), depths=(20,))
        (result,) = sweep(grid, Evaluator())
        degenerate = dataclasses.replace(
            result,
            timing={**result.timing, "overall_speedup": float("inf")},
            energy={**result.energy, "energy_ratio": float("nan")},
        )
        table = sweep_batch(grid)
        table._columns["overall_speedup"] = np.array([float("inf")])
        table._columns["energy_ratio"] = np.array([float("nan")])
        assert table.to_json() == strict_json([degenerate.as_dict()])

        def reject(token):
            raise ValueError(token)

        for text in (table.to_json(), strict_json([degenerate.as_dict()]), degenerate.to_json()):
            data = json.loads(text, parse_constant=reject)
            row = data[0] if isinstance(data, list) else data
            assert row["timing"]["overall_speedup"] is None
            assert row["energy"]["energy_ratio"] is None

    def test_rows_preserve_input_order(self):
        grid = random_grid(20, seed=7)
        batch = sweep_batch(grid)
        assert batch.scenarios == grid
        assert [r["model"] for r in batch.records()] == [s.model for s in grid]


def _engine_pair():
    """The batch engine's table and the loop engine's results, over every
    Table-5 model (ResNet rows have no offload target), two boards, two
    Q-formats and one SimScenario row."""

    from repro.sim import SimScenario

    grid = scenario_grid(models=TABLE5_MODELS, depths=(20,), n_units=(8,),
                         qformats=((16, 8), (32, 20)), boards=("PYNQ-Z2", "ZCU104"))
    grid.append(SimScenario(model="rODENet-1", depth=56, n_units=16, board="ZCU104"))
    return sweep_batch(grid), sweep(grid)


def _assert_same_views(batch: BatchResult, results: list) -> None:
    """Every view of the table agrees with the rows' own Results."""

    # A SimScenario row's flat_dict also holds its serving knobs.
    flat = [{name: r.flat_dict()[name] for name in FLAT_COLUMNS} for r in results]
    for name in FLAT_COLUMNS:
        b = batch.column(name)
        if isinstance(flat[0][name], str) and isinstance(b[0], list):  # a per-target column
            assert [" / ".join(map(str, v)) or "-" for v in b.tolist()] == [row[name] for row in flat]
            reference = b  # the row path keeps only the joined text
        else:
            reference = np.asarray([row[name] for row in flat])
        assert b.dtype == reference.dtype, name
        assert b.tolist() == reference.tolist(), name
    for i in range(len(batch)):
        assert batch.record(i) == flat[i]
    assert batch.records() == flat
    assert batch.as_dicts() == [r.as_dict() for r in results]
    assert batch.to_results() == results
    assert batch.to_json() == strict_json([r.as_dict() for r in results])
    assert batch.to_csv() == Report.to_csv(batch)


class TestEngineViews:
    """Every view of a batch-engine table equals the loop engine's Results."""

    def test_every_view(self):
        batch, results = _engine_pair()
        assert "-" in batch.column("offload_target").tolist()
        _assert_same_views(batch, results)

    def test_every_view_after_take(self):
        batch, results = _engine_pair()
        idx = [3, 0, 3, 9]
        _assert_same_views(batch.take(idx), [results[i] for i in idx])

    def test_pareto_fronts(self):
        batch, results = _engine_pair()
        fronts = batch.pareto_fronts("total_w_pl_s", "energy_with_pl_J")
        assert list(fronts) == ["PYNQ-Z2", "ZCU104"]
        for board, front in fronts.items():
            rows = [r for r in results if r.scenario.board == board]
            kept = pareto_indices([r.timing["total_w_pl_s"] for r in rows],
                                  [r.energy["energy_with_pl_J"] for r in rows])
            assert front.scenarios == [rows[i].scenario for i in kept]
            _assert_same_views(front, sweep(front.scenarios))


class TestBatchResult:
    def test_len_and_columns(self):
        batch = sweep_batch(scenario_grid(models=("rODENet-3",), depths=(20, 56)))
        assert len(batch) == 2
        speedups = batch.column("overall_speedup")
        assert speedups.shape == (2,)
        assert (speedups > 1.0).all()

    def test_unknown_column_raises(self):
        batch = sweep_batch([Scenario()])
        with pytest.raises(KeyError, match="unknown column"):
            batch.column("nope")

    def test_empty_sweep(self):
        batch = sweep_batch([])
        assert len(batch) == 0
        assert batch.records() == []
        assert batch.to_csv() == ""
        assert json.loads(batch.to_json()) == []

    def test_take_subsets_rows(self):
        grid = scenario_grid(models=("rODENet-3",), depths=SUPPORTED_DEPTHS)
        batch = sweep_batch(grid)
        sub = batch.take([3, 0])
        assert sub.scenarios == [grid[3], grid[0]]
        assert sub.record(0) == batch.record(3)

    def test_json_round_trips(self):
        batch = sweep_batch([Scenario()])
        data = json.loads(batch.to_json())
        assert data[0]["scenario"]["model"] == "rODENet-3"
        assert data[0]["timing"]["overall_speedup"] == pytest.approx(2.66, abs=0.01)


def _first_equal_value(table: BatchResult) -> str:
    """CSV through a cache keyed by value alone: each cell is printed as the
    first equal value its column held (the naive shortcut)."""

    rows = table.records()
    seen = {key: {} for key in rows[0]}
    return csv_text([rows[0].keys(), *([seen[k].setdefault(v, v) for k, v in row.items()]
                                       for row in rows)])


def _crafted_table(**cells) -> BatchResult:
    """A batch table of three rows; ``cells`` maps a column to its three
    values, coded one value per row."""

    table = sweep_batch(scenario_grid(models=("rODENet-3",), depths=(20, 32, 56)))
    for key, values in cells.items():
        table._columns[key] = _Coded(np.arange(3), list(values))
    return table


class TestCsvExport:
    """``to_csv`` formats each distinct column value once, byte-identical to
    the report base's row-dict path."""

    def test_batch_tables_match_the_row_path(self):
        for table in (
            sweep_batch(random_grid(60, seed=5)),
            sweep_batch(scenario_grid(models=TABLE5_MODELS, depths=(20, 56), n_units=(1, 8, 32),
                                      word_lengths=(16, 32), boards=("PYNQ-Z2", "ZCU104"))),
            sweep_batch(random_grid(10, seed=1)).take([3, 0, 3, 9]),
        ):
            assert table.to_csv() == Report.to_csv(table)

    def test_signed_zero_in_a_numpy_column(self):
        table = sweep_batch(random_grid(4, seed=2))
        table._columns["energy_ratio"] = np.array([0.0, -0.0, -0.0, 0.0])
        assert table.to_csv() == Report.to_csv(table)
        assert [r.split(",")[FLAT_COLUMNS.index("energy_ratio")] for r in table.to_csv().split("\n")[1:]] \
            == ["0.0", "-0.0", "-0.0", "0.0"]

    CRAFTED = dict(
        total_w_pl_s=[0.0, -0.0, 0.0],
        energy_ratio=[float("nan"), float("inf"), float("-inf")],
        accuracy_pct=[None, 91.5, None],
        fits_device=[True, 1, 1.0],
        offload_target=['a,b', 'say "hi"', "two\nlines"],
        offload=["carriage\rreturn", "", "plain"],
        targets=[[], ["layer3_2"], []],
        target_w_pl_s=[[0.0], [-0.0], [1, True]],
    )

    def test_crafted_cells_match_the_row_path(self):
        table = _crafted_table(**self.CRAFTED)
        assert table.to_csv() == Report.to_csv(table)

    def test_crafted_cells_defeat_a_value_keyed_cache(self):
        # The crafted table is a real check: a cache keyed by value alone
        # would print -0.0 as 0.0 (and 1 as True).
        for column in ("total_w_pl_s", "fits_device"):
            table = _crafted_table(**{column: self.CRAFTED[column]})
            assert table.to_csv() == Report.to_csv(table) != _first_equal_value(table)


class TestPareto:
    def test_pareto_indices_minimize(self):
        x = [1.0, 2.0, 3.0, 2.0]
        y = [3.0, 2.0, 1.0, 4.0]
        idx = pareto_indices(x, y)
        assert list(idx) == [0, 1, 2]  # (2, 4) is dominated by (2, 2)

    def test_pareto_indices_maximize(self):
        x = [1.0, 2.0, 3.0]
        y = [5.0, 9.0, 1.0]
        idx = pareto_indices(x, y, maximize_x=True, maximize_y=True)
        assert set(idx) == {1, 2}  # (1, 5) dominated by (2, 9)

    def test_pareto_indices_duplicates_kept_once(self):
        idx = pareto_indices([1.0, 1.0], [2.0, 2.0])
        assert len(idx) == 1

    def test_pareto_shape_mismatch(self):
        with pytest.raises(ValueError, match="same length"):
            pareto_indices([1.0], [1.0, 2.0])

    def test_front_is_mutually_non_dominated(self):
        batch = sweep_batch(
            scenario_grid(
                models=("rODENet-3", "Hybrid-3"), depths=SUPPORTED_DEPTHS, n_units=(1, 4, 16)
            )
        )
        front = batch.pareto_front("total_w_pl_s", "bram", maximize_x=False, maximize_y=False)
        assert 0 < len(front) <= len(batch)
        xs = front.column("total_w_pl_s")
        ys = front.column("bram")
        for i in range(len(front)):
            for j in range(len(front)):
                if i == j:
                    continue
                dominated = xs[j] <= xs[i] and ys[j] <= ys[i] and (xs[j] < xs[i] or ys[j] < ys[i])
                assert not dominated

    def test_front_with_maximized_speedup(self):
        batch = sweep_batch(scenario_grid(models=TABLE5_MODELS, depths=(56,), n_units=(1, 16)))
        front = batch.pareto_front("bram", "overall_speedup", maximize_y=True)
        # The best-speedup row always survives.
        assert front.column("overall_speedup").max() == batch.column("overall_speedup").max()


class TestSubclassRows:
    """Subclass rows take the one vector path and match the loop engine."""

    def test_subclass_scenarios_match_loop(self):
        from repro.sim import SimScenario

        plain = scenario_grid(models=("rODENet-3",), depths=(20, 56))
        subclassed = [PassthroughScenario(model="Hybrid-3", depth=d) for d in (20, 56)]
        served = [
            SimScenario(model="rODENet-1", depth=20, n_units=8, board="ZCU104"),
            SimScenario(model="ResNet", depth=32, arrival_rate_hz=5.0),
        ]
        mixed = [plain[0], subclassed[0], served[0], plain[1], subclassed[1], served[1]]
        batch = sweep_batch(mixed)
        assert batch.to_results() == sweep(mixed)
        assert [r["model"] for r in batch.records()] == [s.model for s in mixed]
        assert batch.scenarios == mixed
