#!/usr/bin/env python
"""Benchmark: closed-form plan/timing kernels vs the scalar code path.

Two measurements, both value-checked before timing is trusted:

1. **Kernel throughput** — BRAM plans and timing closure evaluated over a
   large format x unit-count axis, once by looping the scalar planner
   (``plan_block_allocation`` / ``TimingModel.analyze``) and once with the
   array kernels (``bram_tiles_kernel`` / ``TimingModel.analyze_batch``).
   The kernels must agree element-for-element and be >= 10x faster
   (asserted in every mode — the gap is orders of magnitude).

2. **Sweep engine under plan pressure** — ``sweep_batch`` vs the loop engine
   over a grid whose Q-format / n_units axes produce >= 1,000 distinct plan
   keys (the regime the phase-2 vectorization targets: before it, every key
   took a scalar planner call).  Results must be field-for-field identical;
   the full run also asserts the >= 10x speedup of the acceptance criterion.

Usage::

    PYTHONPATH=src python benchmarks/bench_plan_kernels.py            # full
    PYTHONPATH=src python benchmarks/bench_plan_kernels.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.api import Evaluator, scenario_grid, sweep, sweep_batch
from repro.fixedpoint import QFormat
from repro.fpga import TimingModel, plan_block_allocation
from repro.fpga.bram import bram_tiles_kernel
from repro.fpga.geometry import OFFLOADABLE_BLOCKS


#: ``TimingModel.analyze_batch`` columns compared with the scalar reports.
TIMING_COLUMNS = ("critical_path_ns", "fmax_hz", "slack_ns", "meets_timing")


def bench_kernels(n_formats: int, n_units: int, min_speedup: float) -> int:
    """Scalar loop vs array kernels over a formats x units axis."""

    rng = np.random.default_rng(0)
    word_lengths = rng.integers(2, 65, size=n_formats)
    formats = [QFormat(int(wl), int(rng.integers(0, wl))) for wl in word_lengths]
    units = rng.integers(1, 4097, size=n_units)
    clocks = rng.choice([50e6, 100e6, 142e6, 200e6], size=n_units)
    geometries = list(OFFLOADABLE_BLOCKS.values())
    timing_model = TimingModel()

    t0 = time.perf_counter()
    scalar_tiles = [
        plan_block_allocation(geom, qformat=fmt).total_tiles
        for geom in geometries
        for fmt in formats
    ]
    scalar_timing = [
        timing_model.analyze(int(n), target_hz=float(hz)) for n, hz in zip(units, clocks)
    ]
    t_scalar = time.perf_counter() - t0

    bpv = np.array([fmt.bytes_per_value for fmt in formats], dtype=np.int64)
    t0 = time.perf_counter()
    kernel_tiles = np.concatenate([bram_tiles_kernel(geom, bpv) for geom in geometries])
    kernel_timing = timing_model.analyze_batch(units, clocks)
    t_kernel = time.perf_counter() - t0

    identical = kernel_tiles.tolist() == scalar_tiles and all(
        kernel_timing[column].tolist() == [getattr(r, column) for r in scalar_timing]
        for column in TIMING_COLUMNS
    )
    speedup = t_scalar / t_kernel
    n_evals = len(scalar_tiles) + len(scalar_timing)
    print(f"plan/timing evaluations : {n_evals}")
    print(f"scalar loop             : {t_scalar:8.4f} s  ({n_evals / t_scalar:12.0f} plans/s)")
    print(f"array kernels           : {t_kernel:8.4f} s  ({n_evals / t_kernel:12.0f} plans/s)")
    print(f"kernel speedup          : {speedup:8.1f} x")
    print(f"element-for-element identical: {identical}")
    if not identical:
        print("FAIL: kernels disagree with the scalar planner", file=sys.stderr)
        return 1
    if speedup < min_speedup:
        print(f"FAIL: kernel speedup {speedup:.1f}x below {min_speedup:.0f}x", file=sys.stderr)
        return 1
    return 0


def bench_sweep(quick: bool, repeats: int, min_speedup: float | None) -> int:
    """sweep_batch vs the loop engine on a plan-key-dense grid."""

    if quick:
        formats = [(wl, wl // 2) for wl in range(4, 33, 4)]
        axes = dict(models=("rODENet-3",), depths=(20,), n_units=(8, 16), qformats=formats)
    else:
        formats = [(wl, wl // 2) for wl in range(2, 65)] + [(wl, wl - 1) for wl in range(2, 65)]
        axes = dict(
            models=("rODENet-3", "ODENet"),
            depths=(20, 56),
            n_units=(4, 8, 16, 32),
            qformats=formats,
        )
    grid = scenario_grid(**axes)
    plan_keys = {
        (layer, s.word_length, s.fraction_bits, s.n_units)
        for s in grid
        for layer in OFFLOADABLE_BLOCKS
    }
    print(f"\nsweep grid              : {len(grid)} scenarios, {len(plan_keys)} distinct plan keys")
    if not quick and len(plan_keys) < 1000:
        print("FAIL: full grid must exercise >= 1,000 distinct plan keys", file=sys.stderr)
        return 1

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
    print(f"sweep speedup           : {speedup:8.1f} x")
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
        help="small axes, single repeat, no sweep-speedup assertion (CI smoke)",
    )
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best-of)")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=10.0,
        help="required kernel and (full-mode) sweep speedup (default: 10)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        rc = bench_kernels(n_formats=200, n_units=400, min_speedup=args.min_speedup)
        return rc or bench_sweep(quick=True, repeats=1, min_speedup=None)
    rc = bench_kernels(n_formats=2000, n_units=4000, min_speedup=args.min_speedup)
    return rc or bench_sweep(quick=False, repeats=args.repeats, min_speedup=args.min_speedup)


if __name__ == "__main__":
    sys.exit(main())
