#!/usr/bin/env python
"""Benchmark: vectorized batch sweep engine vs the per-scenario loop engine.

Builds a large design-space grid (7 models x 4 depths x 10 MAC-unit counts x
4 word lengths x 2 solvers = 2,240 scenarios by default), evaluates it with
both engines, verifies the results are field-for-field identical, and prints
the throughput of each.  The batch engine must be at least 10x faster on the
full grid (asserted unless ``--quick``).

Usage::

    PYTHONPATH=src python benchmarks/bench_sweep_engine.py            # full
    PYTHONPATH=src python benchmarks/bench_sweep_engine.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.api import Evaluator, scenario_grid, sweep, sweep_batch
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
        return run(QUICK_AXES, repeats=1, min_speedup=None)
    return run(FULL_AXES, repeats=args.repeats, min_speedup=args.min_speedup)


if __name__ == "__main__":
    sys.exit(main())
