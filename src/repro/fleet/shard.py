"""Shared-nothing sharding: :func:`simulate_fleet` fans cells over processes.

Cells are *scenario* knobs — they change which boards serve which requests.
Shards are *execution* knobs — how many worker processes run those cells.
Every cell seeds its own ``np.random.default_rng((seed, cell))`` stream and
returns a picklable :class:`~repro.fleet.report.CellResult`;
:func:`repro._pool.ordered_map` hands them back in ascending cell order and
:func:`~repro.fleet.report.merge_cells` folds them in that order, so the
merged report is bit-identical for any ``shards`` value (the shard
conformance tests pin this).
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from .._pool import ordered_map
from ..api.evaluator import Evaluator
from .cluster import FleetScenario
from .report import FleetReport, merge_cells
from .runner import run_cell

__all__ = ["simulate_fleet"]


def simulate_fleet(
    scenario: Optional[FleetScenario] = None,
    shards: int = 1,
    evaluator: Optional[Evaluator] = None,
    **overrides: object,
) -> FleetReport:
    """Simulate a multi-board fleet and return the merged :class:`FleetReport`.

    ``shards`` caps the worker processes used to execute the scenario's
    cells; it never changes the numbers.  With ``shards <= 1`` (or a
    single-cell scenario) everything runs inline; either way every cell
    sees the one memoised :class:`~repro.api.evaluator.Evaluator` (a pool
    worker gets its own copy, which memoises the same values).  Keyword
    overrides build/adjust the scenario, mirroring :func:`repro.api.simulate`::

        simulate_fleet(boards=(BoardGroup("PYNQ-Z2", 8),), arrival_rate_hz=200.0)
    """

    if scenario is None:
        scenario = FleetScenario(**overrides)
    elif overrides:
        scenario = scenario.replace(**overrides)
    if not isinstance(shards, int) or shards < 1:
        raise ValueError(f"shards must be a positive integer (got {shards!r})")

    ev = evaluator if evaluator is not None else Evaluator()
    # ``run_cell`` is looked up here, at call time, so a wrapper patched onto
    # this module's global is what runs.
    results = ordered_map(partial(run_cell, scenario, evaluator=ev), range(scenario.cells), shards)
    return merge_cells(scenario.as_dict(), results, shards, scenario.exact)
