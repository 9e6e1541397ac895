#!/usr/bin/env python
"""Benchmark: the fast bit-accurate forward path (split-limb GEMM + sharding).

Three measurements, each value-checked before timing is trusted:

1. **Exact GEMM kernel** — the Q20 32-bit CIFAR-scale conv GEMM of the
   layer3_2 datapath (K = C*KH*KW + 1 = 577, N = 64 channels), run once
   through NumPy's ``int64`` matmul (no BLAS backend, generic inner loop)
   and once through the split-limb :class:`repro.fpga.PlannedGemm`.  The
   results must be **bit-identical** and the split-limb path >= 5x faster
   single-core (asserted in every mode; BLAS threads are pinned to 1
   before NumPy is imported).

2. **Sharded accuracy_sweep scaling** — the streamed sweep at 1, 2 and 4
   workers over the same chunk grid (one pool task per chunk: the worker
   draws the chunk's inputs from its ``default_rng((seed, chunk))``
   stream, the float reference runs once and every format is measured
   against it, and BN's square root is one vectorised floor isqrt, not a
   per-element Newton loop).  Worker-count invariance is asserted
   (records bit-identical across worker counts); the wall-clock curve is
   reported.

3. **Bounded-memory streaming** (full mode) — ``accuracy_sweep`` over
   >= 1,024 CIFAR-scale images x 4 Q-formats under ``tracemalloc``: peak
   traced allocation must stay bounded by the chunk size, far below the
   whole-batch footprint the legacy path would need.

Usage::

    PYTHONPATH=src python benchmarks/bench_fx_forward.py            # full
    PYTHONPATH=src python benchmarks/bench_fx_forward.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import os
import sys
import time

# Single-core discipline: pin every BLAS/threadpool knob BEFORE NumPy loads,
# so the asserted kernel speedup is a one-core-vs-one-core comparison.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from repro.api.accuracy import accuracy_sweep  # noqa: E402
from repro.fpga.gemm import PlannedGemm, _magnitude  # noqa: E402
from repro.fpga.ops import DEFAULT_ROW_CHUNK  # noqa: E402

#: The layer3_2 conv GEMM shape with the time-concat channel: 64 output
#: channels over 8x8 maps, K = 64*9 + 1.
K_LAYER3_2 = 577
N_CHANNELS = 64
ROWS_PER_IMAGE = 64

SWEEP_FORMATS = [(32, 20), (24, 12), (16, 8), (12, 6)]


def bench_kernel(images: int, repeats: int, min_speedup: float) -> int:
    """int64 matmul vs the split-limb GEMM on the Q20 conv shape."""

    rng = np.random.default_rng(0)
    m = images * ROWS_PER_IMAGE
    # Q20 activations span the full 32-bit word; weights at the sweep's
    # scale-0.1 magnitude occupy ~17 bits — the planner's 2-limb regime.
    a = rng.integers(-(2**31), 2**31, size=(m, K_LAYER3_2), dtype=np.int64)
    b = rng.integers(-(2**17), 2**17, size=(K_LAYER3_2, N_CHANNELS), dtype=np.int64)

    gemm = PlannedGemm(b, a_max=_magnitude(a))
    print(f"GEMM shape              : ({m} x {K_LAYER3_2}) @ ({K_LAYER3_2} x {N_CHANNELS})")
    print(f"plan                    : split={gemm.plan.split}, "
          f"{gemm.plan.n_limbs} limb(s) x {gemm.plan.limb_bits} bits")

    # The conv pipeline materialises the left operand in the plan's dtype for
    # free (im2col's fused gather+cast writes float64 directly), so the
    # kernel comparison feeds each path its own natural operand layout.
    a_planned = a.astype(gemm.a_dtype)
    got = np.empty((m, N_CHANNELS), dtype=np.int64)

    def split_path() -> np.ndarray:
        # Exactly what hw_conv2d does: stream bounded row chunks through the
        # planned GEMM (one BLAS call each) into a preallocated accumulator.
        # Chunking also keeps the working set cache-resident at dataset scale.
        for start in range(0, m, DEFAULT_ROW_CHUNK):
            got[start : start + DEFAULT_ROW_CHUNK] = gemm(
                a_planned[start : start + DEFAULT_ROW_CHUNK]
            )
        return got

    # Warm up both paths at full size off the clock: BLAS initialisation,
    # first-touch page faults of the temporaries, and CPU frequency ramp all
    # land here instead of in the first timed repeat.
    _ = a @ b
    _ = split_path()

    int64_best = split_best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        want = a @ b
        int64_best = min(int64_best, time.perf_counter() - t0)

        t0 = time.perf_counter()
        got = split_path()
        split_best = min(split_best, time.perf_counter() - t0)

    identical = np.array_equal(want, got)
    speedup = int64_best / split_best
    print(f"int64 matmul            : {int64_best:8.4f} s")
    print(f"split-limb GEMM         : {split_best:8.4f} s")
    print(f"kernel speedup          : {speedup:8.1f} x")
    print(f"bit-identical results   : {identical}")
    if not identical:
        print("FAIL: split-limb GEMM disagrees with the int64 matmul", file=sys.stderr)
        return 1
    if speedup < min_speedup:
        print(f"FAIL: speedup {speedup:.1f}x below the required {min_speedup:.0f}x",
              file=sys.stderr)
        return 1
    return 0


def bench_sweep_scaling(images: int, chunk_size: int, worker_counts) -> int:
    """Sharded accuracy_sweep wall-clock curve + worker-count invariance."""

    print(f"\nsweep                   : layer3_2, {images} images x "
          f"{len(SWEEP_FORMATS)} formats, chunk_size={chunk_size} "
          f"({os.cpu_count()} CPU(s) visible)")
    # The asserted property is worker-count *invariance* of the numbers; the
    # wall-clock curve only bends on multi-core hosts.
    baseline = None
    base_time = None
    for workers in worker_counts:
        t0 = time.perf_counter()
        result = accuracy_sweep(
            block="layer3_2", formats=SWEEP_FORMATS, images=images,
            seed=0, chunk_size=chunk_size, workers=workers,
        )
        elapsed = time.perf_counter() - t0
        records = result.records()
        if baseline is None:
            baseline, base_time = records, elapsed
            scale = ""
        else:
            scale = f"  ({base_time / elapsed:4.2f}x vs workers=1)"
            if records != baseline:
                print(f"FAIL: workers={workers} changed the results", file=sys.stderr)
                return 1
        print(f"workers={workers:<2d}              : {elapsed:8.2f} s{scale}")
    print("worker-count invariant  : True")
    return 0


def bench_bounded_memory(images: int, chunk_size: int, budget_mb: float) -> int:
    """Dataset-scale streaming under a tracemalloc peak-allocation budget."""

    import tracemalloc

    print(f"\nstreaming memory check  : {images} images, chunk_size={chunk_size}, "
          f"budget {budget_mb:.0f} MB")
    tracemalloc.start()
    tracemalloc.reset_peak()
    accuracy_sweep(
        block="layer3_2", formats=SWEEP_FORMATS, images=images,
        seed=0, chunk_size=chunk_size, workers=1,
    )
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    peak_mb = peak / 2**20
    # What the legacy path would hold at once: six pipeline stages of the
    # whole batch, reference + fixed-point, before the im2col expansion.
    batch_mb = images * N_CHANNELS * 64 * 8 * 12 / 2**20
    print(f"peak traced allocation  : {peak_mb:8.1f} MB "
          f"(whole-batch stages alone would be ~{batch_mb:.0f} MB)")
    if peak_mb > budget_mb:
        print(f"FAIL: peak {peak_mb:.1f} MB exceeds the {budget_mb:.0f} MB budget",
              file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small batch, 2 worker points, no memory phase (CI smoke)",
    )
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best-of)")
    parser.add_argument(
        "--min-speedup", type=float, default=5.0,
        help="required single-core kernel speedup (default: 5, asserted in every mode)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        rc = bench_kernel(images=256, repeats=2, min_speedup=args.min_speedup)
        return rc or bench_sweep_scaling(images=64, chunk_size=16, worker_counts=(1, 2))
    rc = bench_kernel(images=2048, repeats=args.repeats, min_speedup=args.min_speedup)
    rc = rc or bench_sweep_scaling(images=1024, chunk_size=64, worker_counts=(1, 2, 4))
    return rc or bench_bounded_memory(images=1024, chunk_size=64, budget_mb=256.0)


if __name__ == "__main__":
    sys.exit(main())
