#!/usr/bin/env python
"""Benchmark: the fast bit-accurate forward path (gather, split-limb GEMM, grouping, sharding).

Five measurements, each value-checked before timing is trusted:

1. **im2col gather** — the layer1 conv gather (32 images x 16 channels x
   32x32, int64 -> float64 into an ``out=`` buffer), run once through
   :func:`repro.nn.im2col.im2col` (channel-last: a zero-padded NHWC copy,
   then runs of KW*C contiguous elements) and once through a bench-local
   copy of the former channel-first gather (runs of KW elements).  The
   columns must be equal up to the ``(C, KH, KW)`` -> ``(KH, KW, C)``
   permutation and the channel-last gather >= 2x faster on the median of
   per-round ratios, the two paths timed in each round in alternating order
   (asserted in every mode).

2. **Exact GEMM kernel** — the Q20 32-bit CIFAR-scale conv GEMM of the
   layer3_2 datapath (K = KH*KW*C + 1 = 577, N = 64 channels), run once
   through NumPy's ``int64`` matmul (no BLAS backend, generic inner loop)
   and once through the split-limb :class:`repro.fpga.PlannedGemm`.  The
   results must be **bit-identical** and the split-limb path >= 5x faster
   single-core (asserted in every mode; BLAS threads are pinned to 1
   before NumPy is imported).  The split-limb path runs one BLAS call per
   layer3_2 image group, as the forward pass does.

3. **Grouped datapath** — the layer1 forward pass (32 images, Q20) through
   ``HardwareODEBlock.dynamics_batch``, which runs the five-step pipeline
   on cache-sized image groups, and through a bench-local stage-by-stage
   pipeline that runs every stage over the whole batch.  The outputs must be bit-identical and the grouped pass no
   slower than :data:`MIN_DATAPATH_RATIO` times the whole-batch one
   (asserted in every mode).

4. **Sharded accuracy_sweep scaling** — the streamed sweep at 1, 2 and 4
   workers over the same chunk grid (one pool task per chunk: the worker
   draws the chunk's inputs from its ``default_rng((seed, chunk))``
   stream, the float reference runs once and every format is measured
   against it, and BN's square root is one vectorised floor isqrt, not a
   per-element Newton loop).  It runs in a child process with the BLAS
   knobs this bench pinned unset again, so the parent sweep runs at the
   host's default BLAS threads, as a user's does (each pool worker runs
   one).  Worker-count invariance is asserted (records bit-identical
   across worker counts); the wall-clock curve and its ratio against
   ``workers=1`` are reported, with no floor.

5. **Bounded-memory streaming** (full mode) — ``accuracy_sweep`` over
   >= 1,024 CIFAR-scale images x 4 Q-formats under ``tracemalloc``: peak
   traced allocation must stay bounded by the chunk size, far below the
   footprint of every pipeline stage over the whole batch at once.

Usage::

    PYTHONPATH=src python benchmarks/bench_fx_forward.py            # full
    PYTHONPATH=src python benchmarks/bench_fx_forward.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: The BLAS/threadpool knobs a run of this file pins to 1: those the caller
#: left unset.  The sharded-sweep child unsets them again.
PINNED = [var for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
          if var not in os.environ]
if __name__ == "__main__":
    # Single-core discipline: pin the knobs BEFORE NumPy loads, so the
    # asserted kernel speedup is a one-core-vs-one-core comparison.
    for _var in PINNED:
        os.environ[_var] = "1"

import numpy as np  # noqa: E402

from repro.api.accuracy import accuracy_sweep  # noqa: E402
from repro.fixedpoint import Q20, FxArray  # noqa: E402
from repro.fpga import (  # noqa: E402
    GROUP_ELEMENTS, LAYER1, BlockWeights, HardwareODEBlock, image_groups,
)
from repro.fpga.gemm import PlannedGemm, _magnitude  # noqa: E402
from repro.fpga.ops import hw_batch_norm, hw_conv2d, hw_relu  # noqa: E402
from repro.nn.im2col import conv_output_size, im2col  # noqa: E402

#: The layer3_2 conv GEMM shape with the time-concat channel: 64 output
#: channels over 8x8 maps, K = 64*9 + 1.
K_LAYER3_2 = 577
N_CHANNELS = 64
ROWS_PER_IMAGE = 64

SWEEP_FORMATS = [(32, 20), (24, 12), (16, 8), (12, 6)]

#: The layer1 conv input of one forward chunk: 32 images x 16 channels x 32x32.
GATHER_SHAPE = (32, 16, 32, 32)
#: Asserted floor of the channel-last gather over the channel-first one, on
#: the median per-round ratio.  With only the padding border zeroed, ten
#: ``--quick`` runs on a shared 2-CPU host, alternated with ten of the
#: full-buffer zeroing, read medians of 2.11-2.95x (median 2.22x) against
#: 2.09-2.82x (2.12x); earlier runs of the full-buffer zeroing read
#: 1.82-2.33x.  The floor sits just below the measured spread, so this
#: check can still fail on noise.
MIN_GATHER_SPEEDUP = 2.0
#: Rounds of the gather pair, and timed calls per path per round (best-of,
#: after one warm-up call); one call costs 3-20 ms.
GATHER_REPEATS = 8
GATHER_BURST = 5

#: The layer1 forward pass of one perfbench sweep: 32 images at Q20.
DATAPATH_IMAGES = 32
#: Asserted floor of the grouped datapath over the whole-batch pipeline.
#: Both sides run the same fixed-point operators; with each operator
#: allocating its result once, ten ``--quick`` runs on a shared 2-CPU host
#: read 1.26-1.43x (ten runs alternated with them before that change:
#: 1.51-1.68x), so the floor is 0.75x the lowest.
MIN_DATAPATH_RATIO = 0.95
#: Timed calls per datapath (best-of); one call costs 50-100 ms.
DATAPATH_REPEATS = 7


def channel_first_im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int,
                         out: np.ndarray) -> np.ndarray:
    """The former gather: columns ordered (C, KH, KW), copied in runs of KW."""

    n, c, h, w = x.shape
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    sn, sc, sh, sw = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x, shape=(n, c, kh, kw, out_h, out_w),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
    )
    np.copyto(out.reshape(n, out_h, out_w, c, kh, kw), patches.transpose(0, 4, 5, 1, 2, 3))
    return out


def bench_gather(repeats: int, min_speedup: float) -> int:
    """Channel-last im2col vs the former channel-first gather at layer1 geometry."""

    rng = np.random.default_rng(0)
    n, c, h, w = GATHER_SHAPE
    x = rng.integers(-(2**31), 2**31, size=GATHER_SHAPE, dtype=np.int64)
    rows = n * h * w
    new_out = np.empty((rows, 9 * c), dtype=np.float64)
    old_out = np.empty_like(new_out)
    print(f"gather shape            : {GATHER_SHAPE} int64 -> ({rows} x {9 * c}) float64")

    def new_gather() -> None:
        im2col(x, 3, 3, 1, 1, out=new_out)

    def old_gather() -> None:
        channel_first_im2col(x, 3, 3, 1, 1, old_out)

    def best_of_burst(gather) -> float:
        # A burst runs one path back to back into its own buffer, so it is
        # timed with its 37.7 MB destination as warm as the other path's:
        # single calls interleaved make each evict the other's buffer and
        # measure the memory bus (1.8-2.0x on a shared 2-CPU host) instead
        # of the gather.
        gather()  # warm-up off the clock: first-touch page faults land here
        best = float("inf")
        for _ in range(GATHER_BURST):
            t0 = time.perf_counter()
            gather()
            best = min(best, time.perf_counter() - t0)
        return best

    # Both paths run in every round and the first of the pair swaps each
    # round, so a slow host episode lands on both sides of a round alike;
    # the floor is on the median of the per-round ratios.
    new_times: list = []
    old_times: list = []
    sides = [(new_gather, new_times), (old_gather, old_times)]
    for round_ in range(repeats):
        for gather, times in sides if round_ % 2 == 0 else sides[::-1]:
            times.append(best_of_burst(gather))
    q1, speedup, q3 = np.percentile(np.divide(old_times, new_times), [25, 50, 75])

    permuted = old_out.reshape(rows, c, 3, 3).transpose(0, 2, 3, 1).reshape(rows, -1)
    identical = np.array_equal(new_out, permuted)
    print(f"channel-first gather    : {np.median(old_times):8.4f} s (median of {repeats} rounds)")
    print(f"channel-last gather     : {np.median(new_times):8.4f} s (median of {repeats} rounds)")
    print(f"gather speedup          : {speedup:8.2f} x (per-round median; quartiles "
          f"{q1:.2f}-{q3:.2f} x)")
    print(f"same columns, permuted  : {identical}")
    if not identical:
        print("FAIL: channel-last columns are not a permutation of the channel-first ones",
              file=sys.stderr)
        return 1
    if speedup < min_speedup:
        print(f"FAIL: median gather speedup {speedup:.2f}x below the required "
              f"{min_speedup:.0f}x", file=sys.stderr)
        return 1
    return 0


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
    # free (im2col casts into its padded channel-last copy and gathers
    # float64 directly), so the kernel comparison feeds each path its own
    # natural operand layout.
    a_planned = a.astype(gemm.a_dtype)
    got = np.empty((m, N_CHANNELS), dtype=np.int64)

    # What the forward pass does: one planned GEMM call (one BLAS call) per
    # image group, which also keeps the working set cache-resident.
    group_rows = ROWS_PER_IMAGE * (GROUP_ELEMENTS // (N_CHANNELS * ROWS_PER_IMAGE))

    def split_path() -> np.ndarray:
        for start in range(0, m, group_rows):
            got[start : start + group_rows] = gemm(a_planned[start : start + group_rows])
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


def whole_batch_forward(weights: BlockWeights, z: np.ndarray) -> np.ndarray:
    """The ungrouped reference: each of the five steps over the whole batch."""

    q = lambda values: FxArray.from_float(values, Q20)  # noqa: E731
    h = hw_conv2d(q(z), q(weights.conv1_weight))
    h = hw_relu(hw_batch_norm(h, q(weights.bn1_gamma), q(weights.bn1_beta)))
    h = hw_conv2d(h, q(weights.conv2_weight))
    return hw_batch_norm(h, q(weights.bn2_gamma), q(weights.bn2_beta)).to_float()


def bench_datapath(repeats: int, min_ratio: float) -> int:
    """Grouped ``dynamics_batch`` vs the whole-batch pipeline on layer1 at Q20."""

    rng = np.random.default_rng(0)
    weights = BlockWeights.random(LAYER1, rng)
    z = rng.normal(0.0, 0.5, size=(DATAPATH_IMAGES, LAYER1.in_channels, LAYER1.height,
                                   LAYER1.width))
    block = HardwareODEBlock(LAYER1, weights, qformat=Q20)
    groups = image_groups(DATAPATH_IMAGES, LAYER1.input_elements)
    print(f"\ndatapath                : layer1, {DATAPATH_IMAGES} images in {len(groups)} "
          "groups, Q20")

    grouped = block.dynamics_batch(z)  # warm-up off the clock
    identical = np.array_equal(grouped, whole_batch_forward(weights, z))
    grouped_best = whole_best = float("inf")
    for _ in range(repeats):
        # Alternate the two paths so host drift hits both alike.
        t0 = time.perf_counter()
        block.dynamics_batch(z)
        grouped_best = min(grouped_best, time.perf_counter() - t0)
        t0 = time.perf_counter()
        whole_batch_forward(weights, z)
        whole_best = min(whole_best, time.perf_counter() - t0)

    ratio = whole_best / grouped_best
    print(f"whole-batch pipeline    : {whole_best:8.4f} s")
    print(f"grouped dynamics_batch  : {grouped_best:8.4f} s")
    print(f"datapath ratio          : {ratio:8.2f} x")
    print(f"bit-identical outputs   : {identical}")
    if not identical:
        print("FAIL: grouped datapath disagrees with the whole-batch pipeline", file=sys.stderr)
        return 1
    if ratio < min_ratio:
        print(f"FAIL: datapath ratio {ratio:.2f}x below the required {min_ratio:.2f}x",
              file=sys.stderr)
        return 1
    return 0


def bench_sweep_scaling(images: int, chunk_size: int, worker_counts) -> int:
    """:func:`sweep_curve` in a child process at the host's default BLAS threads."""

    env = {var: value for var, value in os.environ.items() if var not in PINNED}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HERE), str(HERE.parent / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    code = (f"import sys, bench_fx_forward as b; "
            f"sys.exit(b.sweep_curve({images}, {chunk_size}, {tuple(worker_counts)}))")
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    print(child.stdout, end="")
    print(child.stderr, end="", file=sys.stderr)
    return child.returncode


def sweep_curve(images: int, chunk_size: int, worker_counts) -> int:
    """Sharded accuracy_sweep wall-clock curve + worker-count invariance."""

    threads = os.environ.get("OPENBLAS_NUM_THREADS", "host default")
    print(f"\nsweep                   : layer3_2, {images} images x "
          f"{len(SWEEP_FORMATS)} formats, chunk_size={chunk_size} "
          f"({os.cpu_count()} CPU(s) visible; BLAS threads: {threads}, 1 per worker)")
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
    # For scale: six pipeline stages of the whole batch at once, reference
    # + fixed-point, before the im2col expansion.
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
    rc = bench_gather(repeats=GATHER_REPEATS, min_speedup=MIN_GATHER_SPEEDUP)
    print()
    if args.quick:
        rc = rc or bench_kernel(images=256, repeats=2, min_speedup=args.min_speedup)
        rc = rc or bench_datapath(repeats=DATAPATH_REPEATS, min_ratio=MIN_DATAPATH_RATIO)
        return rc or bench_sweep_scaling(images=64, chunk_size=16, worker_counts=(1, 2))
    rc = rc or bench_kernel(images=2048, repeats=args.repeats, min_speedup=args.min_speedup)
    rc = rc or bench_datapath(repeats=DATAPATH_REPEATS, min_ratio=MIN_DATAPATH_RATIO)
    rc = rc or bench_sweep_scaling(images=1024, chunk_size=64, worker_counts=(1, 2, 4))
    return rc or bench_bounded_memory(images=1024, chunk_size=64, budget_mb=256.0)


if __name__ == "__main__":
    sys.exit(main())
