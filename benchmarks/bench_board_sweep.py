#!/usr/bin/env python
"""Benchmark: the board axis through the batch engine vs the loop engine.

The platform refactor made the board a first-class sweep axis: the batch
engine broadcasts every board-derived quantity (PS/PL clocks, fabric totals,
delay scale, wattages) as per-board columns instead of falling back to the
scalar evaluator.  This benchmark measures that claim on a multi-board grid
(every registered board crossed with models x depths x units x formats):

1. results must be **field-for-field identical** to the loop engine
   (checked before any timing is trusted), and
2. the batch engine must be **>= 10x faster** (asserted in full mode; the
   gap is orders of magnitude).

It also prints the cross-board Pareto fronts (latency vs energy per board)
as a quick sanity view of what the axis buys.

Usage::

    PYTHONPATH=src python benchmarks/bench_board_sweep.py            # full
    PYTHONPATH=src python benchmarks/bench_board_sweep.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.api import Evaluator, scenario_grid, sweep, sweep_batch
from repro.platform import list_boards


def bench(quick: bool, repeats: int, min_speedup: float | None) -> int:
    boards = list_boards()
    if quick:
        axes = dict(
            models=("rODENet-3",), depths=(20, 56), n_units=(8, 16),
            boards=boards,
        )
    else:
        axes = dict(
            models=("ResNet", "rODENet-1", "rODENet-2", "rODENet-1+2", "rODENet-3", "Hybrid-3"),
            depths=(20, 32, 44, 56),
            n_units=(1, 4, 8, 16, 32),
            word_lengths=(32, 16, 12, 8),
            boards=boards,
        )
    grid = scenario_grid(**axes)
    print(f"\nboard-axis grid         : {len(grid)} scenarios over {len(boards)} boards")

    loop_best = batch_best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        loop_results = sweep(grid, evaluator=Evaluator())
        loop_best = min(loop_best, time.perf_counter() - t0)

        t0 = time.perf_counter()
        batch_results = sweep_batch(grid)
        batch_best = min(batch_best, time.perf_counter() - t0)

    identical = batch_results.to_results() == loop_results
    speedup = loop_best / batch_best
    print(f"loop engine             : {loop_best:8.4f} s  ({len(grid) / loop_best:10.0f} scenarios/s)")
    print(f"batch engine            : {batch_best:8.4f} s  ({len(grid) / batch_best:10.0f} scenarios/s)")
    print(f"board-axis speedup      : {speedup:8.1f} x")
    print(f"field-for-field identical results: {identical}")

    fronts = batch_results.pareto_fronts("total_w_pl_s", "energy_with_pl_J")
    print("cross-board Pareto fronts (latency vs energy):")
    for name, front in fronts.items():
        best = front.record(0)
        print(
            f"  {name:<12}: {len(front)} undominated point(s); fastest "
            f"{best['model']}-{best['depth']} conv_x{best['n_units']} at "
            f"{best['total_w_pl_s']:.4f} s / {best['energy_with_pl_J']:.4f} J"
        )

    if not identical:
        print("FAIL: engines disagree on the board axis", file=sys.stderr)
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
        help="small axes, single repeat, no speedup assertion (CI smoke)",
    )
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best-of)")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=10.0,
        help="required full-mode batch-vs-loop speedup (default: 10)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        return bench(quick=True, repeats=1, min_speedup=None)
    return bench(quick=False, repeats=args.repeats, min_speedup=args.min_speedup)


if __name__ == "__main__":
    sys.exit(main())
