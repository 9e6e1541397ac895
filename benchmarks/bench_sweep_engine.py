#!/usr/bin/env python
"""Benchmark: vectorized batch sweep engine vs the per-scenario loop engine.

Builds a large design-space grid (7 models x 4 depths x 10 MAC-unit counts x
4 word lengths x 2 solvers = 2,240 scenarios by default), evaluates it with
both engines, verifies the results are field-for-field identical, and prints
the throughput of each.  The batch engine must be at least 10x faster on the
full grid (asserted unless ``--quick``).

The export section times what ``sweep --format csv`` (the CLI's one engine)
does on a 3,584-row grid (7 models x 2 depths x 32 MAC-unit counts x 2 word lengths
x 4 boards): grid, batch evaluation, CSV.  It asserts that ``scenario_grid``
equals a per-point ``Scenario(...)`` loop and that ``BatchResult.to_csv`` is
byte-identical to the report base's row-dict CSV, and, in both modes, that
each is faster than its reference by a ratio floor (about half the ratio
measured on a 2-CPU host; a ratio, because absolute times on a shared host
drift by tens of percent).

Usage::

    PYTHONPATH=src python benchmarks/bench_sweep_engine.py            # full
    PYTHONPATH=src python benchmarks/bench_sweep_engine.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time

from repro.analysis import Report
from repro.api import (
    DEFAULT_FRACTION_BITS, Evaluator, Scenario, scenario_grid, sweep, sweep_batch,
)
from repro.core import SUPPORTED_DEPTHS
from repro.core.execution_model import TABLE5_MODELS

FULL_AXES = dict(
    models=TABLE5_MODELS,
    depths=SUPPORTED_DEPTHS,
    n_units=(1, 2, 4, 8, 12, 16, 24, 32, 48, 64),
    word_lengths=(8, 12, 16, 32),
    solvers=("euler", "rk4"),
)

QUICK_AXES = dict(
    models=TABLE5_MODELS,
    depths=SUPPORTED_DEPTHS,
    n_units=(8, 16),
    word_lengths=(32,),
    solvers=("euler",),
)


EXPORT_AXES = dict(
    models=TABLE5_MODELS,
    depths=(20, 56),
    n_units=tuple(range(1, 33)),
    word_lengths=(16, 32),
    boards=("PYNQ-Z2", "Zybo-Z7-20", "Ultra96-V2", "ZCU104"),
)

#: Ratio floors of the export section: the grid against a per-point
#: constructor loop, ``to_csv`` against ``Report.to_csv``.  The CSV ratio
#: read 3.0-6.9x (median 5.1x) over 20 ``--quick`` runs on a shared 2-CPU
#: host, alternated with runs of the row-list export the coded columns
#: replaced (2.3-3.8x there); the floor leaves room below the lowest reading.
MIN_GRID_RATIO = 5.0
MIN_CSV_RATIO = 2.0


def _best(fn, repeats: int):
    """``fn()``'s result and its best wall time over ``repeats`` calls."""

    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def _point_by_point(axes: dict) -> list:
    return [
        Scenario(model=m, depth=d, n_units=u, word_length=wl, fraction_bits=DEFAULT_FRACTION_BITS[wl],
                 board=board)
        for m, d, u, wl, board in itertools.product(
            axes["models"], axes["depths"], axes["n_units"], axes["word_lengths"], axes["boards"])
    ]


def bench_export(repeats: int, min_grid_ratio: float, min_csv_ratio: float) -> int:
    """Grid + batch + CSV of the export grid, each checked against its reference."""

    grid, grid_s = _best(lambda: scenario_grid(**EXPORT_AXES), repeats)
    points, points_s = _best(lambda: _point_by_point(EXPORT_AXES), repeats)
    table, batch_s = _best(lambda: sweep_batch(grid), repeats)
    csv, csv_s = _best(table.to_csv, repeats)
    reference, reference_s = _best(lambda: Report.to_csv(table), repeats)
    grid_ratio, csv_ratio = points_s / grid_s, reference_s / csv_s
    print(f"export grid: {len(grid)} scenarios")
    print(f"scenario_grid: {grid_s:8.4f} s  (per-point loop {points_s:.4f} s, {grid_ratio:.1f}x)")
    print(f"sweep_batch  : {batch_s:8.4f} s")
    print(f"to_csv       : {csv_s:8.4f} s  (row-dict CSV {reference_s:.4f} s, {csv_ratio:.1f}x)")
    print(f"grid + batch + CSV: {grid_s + batch_s + csv_s:.4f} s")

    failures = []
    if grid != points or [s.as_dict() for s in grid] != [s.as_dict() for s in points]:
        failures.append("scenario_grid differs from the per-point loop")
    if csv != reference:
        failures.append("to_csv differs from the row-dict CSV")
    if grid_ratio < min_grid_ratio:
        failures.append(f"scenario_grid {grid_ratio:.1f}x below the required {min_grid_ratio}x")
    if csv_ratio < min_csv_ratio:
        failures.append(f"to_csv {csv_ratio:.1f}x below the required {min_csv_ratio}x")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def run(axes: dict, repeats: int, min_speedup: float | None) -> int:
    grid = scenario_grid(**axes)
    print(f"design-space grid: {len(grid)} scenarios")

    loop_best = batch_best = float("inf")
    for _ in range(repeats):
        # Cold starts on both sides: a fresh Evaluator for the loop engine,
        # and the batch engine builds its context on every call.
        t0 = time.perf_counter()
        loop_results = sweep(grid, evaluator=Evaluator())
        loop_best = min(loop_best, time.perf_counter() - t0)

        t0 = time.perf_counter()
        batch_results = sweep_batch(grid)
        batch_best = min(batch_best, time.perf_counter() - t0)

    identical = batch_results.to_results() == loop_results
    speedup = loop_best / batch_best
    print(f"loop engine  : {loop_best:8.4f} s  ({len(grid) / loop_best:10.0f} scenarios/s)")
    print(f"batch engine : {batch_best:8.4f} s  ({len(grid) / batch_best:10.0f} scenarios/s)")
    print(f"speedup      : {speedup:8.1f} x")
    print(f"field-for-field identical results: {identical}")

    if not identical:
        print("FAIL: engines disagree", file=sys.stderr)
        return 1
    if min_speedup is not None and speedup < min_speedup:
        print(f"FAIL: speedup {speedup:.1f}x below the required {min_speedup:.0f}x", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small grid, single repeat, no speedup assertion (CI smoke test)",
    )
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best-of)")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=10.0,
        help="required batch/loop speedup on the full grid (default: 10)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        code = run(QUICK_AXES, repeats=1, min_speedup=None)
    else:
        code = run(FULL_AXES, repeats=args.repeats, min_speedup=args.min_speedup)
    return bench_export(3, MIN_GRID_RATIO, MIN_CSV_RATIO) or code


if __name__ == "__main__":
    sys.exit(main())
