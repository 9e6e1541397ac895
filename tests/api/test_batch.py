"""Batch-evaluation engine: loop-engine equivalence, Pareto, subclass fallback."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import (
    BatchResult,
    Evaluator,
    Scenario,
    pareto_indices,
    results_to_csv,
    results_to_json,
    scenario_grid,
    sweep,
    sweep_batch,
)
from repro.api.batch import FLAT_COLUMNS
from repro.core import SUPPORTED_DEPTHS
from repro.core.execution_model import TABLE5_MODELS


class PassthroughScenario(Scenario):
    """A Scenario subclass: must take the loop-engine fallback path."""


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
        assert batch.to_csv() == results_to_csv(loop)
        assert batch.to_json() == results_to_json(loop)

    def test_records_match_loop_flat_dicts(self):
        grid = scenario_grid(models=("ODENet", "Hybrid-3"), depths=(20, 44), solvers=("rk4",))
        loop = sweep(grid, Evaluator())
        batch = sweep_batch(grid)
        assert batch.records() == [r.flat_dict() for r in loop]

    def test_rows_preserve_input_order(self):
        grid = random_grid(20, seed=7)
        batch = sweep_batch(grid)
        assert batch.scenarios == grid
        assert [r["model"] for r in batch.records()] == [s.model for s in grid]


class TestBatchResult:
    def test_len_and_columns(self):
        batch = sweep_batch(scenario_grid(models=("rODENet-3",), depths=(20, 56)))
        assert len(batch) == 2
        assert batch.column_names == FLAT_COLUMNS
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

    def test_from_rows_round_trip(self):
        grid = random_grid(10, seed=3)
        batch = sweep_batch(grid)
        rebuilt = BatchResult.from_rows(grid, batch.as_dicts())
        assert rebuilt.to_results() == batch.to_results()


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


class TestProcessPoolFallback:
    """Subclass rows are evaluated in-process by the loop engine."""

    def test_subclass_scenarios_fall_back_and_match_loop(self):
        plain = scenario_grid(models=("rODENet-3",), depths=(20, 56))
        subclassed = [PassthroughScenario(model="Hybrid-3", depth=d) for d in (20, 56)]
        mixed = [plain[0], subclassed[0], plain[1], subclassed[1]]
        batch = sweep_batch(mixed)
        loop = sweep(mixed, Evaluator())
        assert batch.to_results() == loop
        assert [r["model"] for r in batch.records()] == [s.model for s in mixed]
