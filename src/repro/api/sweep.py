"""Design-space sweeps: the per-scenario loop engine.

:func:`sweep` is the grid engine behind the ``repro-odenet sweep``
subcommand, ``examples/design_space.py`` and the ablation benchmarks.  It
takes any iterable of scenarios (usually from
:func:`repro.api.scenario.scenario_grid`) and evaluates them one by one with
a shared, memoizing :class:`~repro.api.evaluator.Evaluator`; results come
back in input order.

This loop engine is also the *conformance oracle* for the vectorized paths:
:mod:`repro.api.batch` (and, since phase 2, the closed-form BRAM/timing
plan kernels inside it) is pinned field-for-field against ``sweep`` by
``tests/api/test_batch.py`` and ``tests/api/test_batch_plans.py``.  Prefer
:func:`repro.api.batch.sweep_batch` for large grids; prefer ``sweep`` when
debugging a single design point end to end.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..analysis.report import csv_text, strict_json
from .evaluator import Evaluator
from .result import Result
from .scenario import Scenario

__all__ = ["sweep", "SweepError", "results_to_csv", "results_to_json", "results_to_records"]


class SweepError(RuntimeError):
    """A scenario evaluation failed inside a sweep.

    The error message names the failing scenario explicitly — including its
    position in the grid, which is what you need to resume or bisect a long
    sweep.  The original
    exception is chained as ``__cause__``; the design point and its grid
    position are available as :attr:`scenario` and :attr:`index`.
    """

    def __init__(
        self, scenario: Scenario, cause: BaseException, index: Optional[int] = None
    ) -> None:
        where = f"scenario #{index} " if index is not None else "scenario "
        super().__init__(
            f"evaluation failed for {where}{scenario.full_name} "
            f"({scenario.as_dict()}): {cause!r}"
        )
        self.scenario = scenario
        self.cause = cause
        self.index = index

    def __reduce__(self):
        # BaseException pickling replays args into __init__; ours are
        # (scenario, cause, index), not the formatted message.
        return (SweepError, (self.scenario, self.cause, self.index))


def sweep(
    scenarios: Iterable[Scenario],
    evaluator: Optional[Evaluator] = None,
) -> List[Result]:
    """Evaluate every scenario; results come back in input order.

    Parameters
    ----------
    scenarios:
        The design points to evaluate.  Duplicates are served from the
        evaluator's memo without recomputation.
    evaluator:
        An existing evaluator to reuse (and warm); a fresh one otherwise.
    """

    ev = evaluator if evaluator is not None else Evaluator()
    results = []
    for index, scenario in enumerate(scenarios):
        try:
            results.append(ev.evaluate(scenario))
        except Exception as exc:
            raise SweepError(scenario, exc, index=index) from exc
    return results


def results_to_records(results: Sequence[Result]) -> List[dict]:
    """Flat one-row-per-scenario dictionaries (table/CSV shaped)."""

    return [r.flat_dict() for r in results]


def results_to_csv(results: Sequence[Result]) -> str:
    """Render results as a CSV document (header + one row per scenario)."""

    if not results:
        return ""
    return "\n".join([results[0].csv_header(), *(r.to_csv_row() for r in results)])


def results_to_json(results: Sequence[Result], indent: int = 2) -> str:
    """Render results as a JSON array of nested result dictionaries."""

    return strict_json([r.as_dict() for r in results], indent=indent)
