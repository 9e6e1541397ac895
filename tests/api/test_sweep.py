"""Design-space sweep engine: ordering, memoization, errors, serialisation."""

from __future__ import annotations

import json

import pytest

from repro.api import (
    Evaluator,
    Scenario,
    BatchResult,
    SweepError,
    scenario_grid,
    sweep,
)

GRID = dict(models=("rODENet-3", "Hybrid-3"), depths=(20, 56), n_units=(8, 16))


def test_sweep_returns_results_in_input_order():
    scenarios = scenario_grid(**GRID)
    results = sweep(scenarios)
    assert [r.scenario for r in results] == scenarios


def test_sweep_memoizes_duplicates():
    ev = Evaluator()
    results = sweep([Scenario(), Scenario(), Scenario()], evaluator=ev)
    assert results[0] is results[1] is results[2]
    assert ev.evaluate(Scenario()) is results[0]


class _ExplodingEvaluator(Evaluator):
    """Fails on one specific design point (to simulate a worker crash)."""

    def __init__(self, poison: Scenario) -> None:
        super().__init__()
        self._poison = poison

    def evaluate(self, scenario: Scenario):
        if scenario == self._poison:
            raise RuntimeError("boom")
        return super().evaluate(scenario)


def test_sweep_error_names_the_failing_scenario():
    scenarios = scenario_grid(**GRID)
    poison = scenarios[2]
    with pytest.raises(SweepError, match=poison.full_name) as excinfo:
        sweep(scenarios, evaluator=_ExplodingEvaluator(poison))
    assert excinfo.value.scenario == poison
    assert isinstance(excinfo.value.__cause__, RuntimeError)
    # The message carries the full design point, not just the name.
    assert f"'n_units': {poison.n_units}" in str(excinfo.value)
    # ... and the position in the grid, for resuming/bisecting long sweeps.
    assert excinfo.value.index == 2
    assert "scenario #2" in str(excinfo.value)


def test_sweep_error_index_of_the_last_scenario():
    scenarios = scenario_grid(**GRID)
    poison = scenarios[-1]
    with pytest.raises(SweepError, match=poison.full_name) as excinfo:
        sweep(scenarios, evaluator=_ExplodingEvaluator(poison))
    assert excinfo.value.index == len(scenarios) - 1


def test_sweep_error_pickles_with_index():
    import pickle

    err = SweepError(Scenario(), RuntimeError("boom"), index=7)
    clone = pickle.loads(pickle.dumps(err))
    assert clone.index == 7
    assert clone.scenario == err.scenario
    assert "scenario #7" in str(clone)


def _table(grid):
    """Loop results tabulated the way the CLI's loop engine does."""

    return BatchResult.from_rows(grid, [r.as_dict() for r in sweep(grid)])


def test_csv_output_one_row_per_scenario():
    grid = scenario_grid(**GRID)
    lines = _table(grid).to_csv().splitlines()
    assert len(lines) == 1 + len(grid)
    header = lines[0].split(",")
    for column in ("model", "depth", "n_units", "bram", "dsp",
                   "total_w_pl_s", "overall_speedup", "energy_ratio"):
        assert column in header
    for line in lines[1:]:
        assert len(line.split(",")) == len(header)


def test_csv_empty_results():
    assert _table([]).to_csv() == ""


def test_json_output_parses():
    data = json.loads(_table(scenario_grid(models=("rODENet-3",), depths=(56,))).to_json())
    assert len(data) == 1
    assert data[0]["scenario"]["model"] == "rODENet-3"


def test_records_are_flat():
    records = _table(scenario_grid(models=("rODENet-3",), depths=(56,))).records()
    assert all(not isinstance(v, (dict, list)) for v in records[0].values())
