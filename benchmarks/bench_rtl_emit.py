#!/usr/bin/env python
"""Benchmark: RTL emission + structural check + vector generation throughput.

Value-checked before timing is trusted: every emitted bundle must pass the
structural checker, emission must be deterministic (identical bundles for
identical inputs), and the golden saturation vectors must regenerate
byte-identically to the files committed under ``tests/rtl/goldens``.  The
timing rows then report emit / check / vector rates over the
(block x qformat x n_units) axis.

Usage::

    PYTHONPATH=src python benchmarks/bench_rtl_emit.py            # full
    PYTHONPATH=src python benchmarks/bench_rtl_emit.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.fixedpoint import QFormat
from repro.fpga.geometry import BlockGeometry, block_geometry
from repro.fpga.odeblock_hw import BlockWeights
from repro.rtl import (
    EXPECTED_HEX,
    GOLDEN_CASES,
    STIMULUS_HEX,
    VECTORS_MANIFEST,
    check_bundle,
    emit_odeblock,
    generate_vectors,
    golden_vectors,
    write_vector_files,
)

TINY = BlockGeometry(name="tiny", in_channels=4, out_channels=4, height=4, width=4)
GOLDEN_ROOT = Path(__file__).resolve().parent.parent / "tests" / "rtl" / "goldens"


def bench_emit_check(points, n_images: int) -> int:
    """Emit + check every design point; report rates; fail on any check error."""

    n_emit = n_check = 0
    t_emit = t_check = t_vec = 0.0
    vec_words = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, (block, qformat, n_units) in enumerate(points):
            geometry = block if isinstance(block, BlockGeometry) else block_geometry(block)
            weights = BlockWeights.random(geometry, np.random.default_rng(i))
            t0 = time.perf_counter()
            bundle = emit_odeblock(geometry, weights, qformat=qformat, n_units=n_units)
            again = emit_odeblock(geometry, weights, qformat=qformat, n_units=n_units)
            t_emit += time.perf_counter() - t0
            if bundle.files != again.files:
                print("FAIL: emission is not deterministic", file=sys.stderr)
                return 1
            n_emit += 1

            out = Path(tmp) / f"p{i}"
            bundle.write(out)
            t0 = time.perf_counter()
            report = check_bundle(out)
            t_check += time.perf_counter() - t0
            if not report["ok"]:
                print(f"FAIL: structural check failed for point {i}", file=sys.stderr)
                return 1
            n_check += 1

            if n_images > 0 and geometry.height <= 8:
                weights = BlockWeights.random(geometry, np.random.default_rng(i), scale=0.5)
                t0 = time.perf_counter()
                vec = generate_vectors(
                    geometry, weights, qformat=qformat,
                    images=n_images, iterations=2, seed=i,
                )
                t_vec += time.perf_counter() - t0
                vec_words += len(vec.records) * vec.words_per_map

    print(f"design points emitted   : {n_emit} (x2 for the determinism cross-check)")
    print(f"emit                    : {t_emit:8.4f} s  ({2 * n_emit / t_emit:8.1f} bundles/s)")
    print(f"structural check        : {t_check:8.4f} s  ({n_check / t_check:8.1f} bundles/s)")
    if vec_words:
        print(f"vector generation       : {t_vec:8.4f} s  ({vec_words / t_vec:10.0f} words/s)")
    return 0


def bench_goldens() -> int:
    """Golden saturation vectors must regenerate byte-identically to the
    committed ``stimulus.hex``, ``expected.hex`` and ``vectors.json``."""

    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(GOLDEN_CASES):
            written = write_vector_files(golden_vectors(name)[0], Path(tmp) / name)
            for file in (STIMULUS_HEX, EXPECTED_HEX, VECTORS_MANIFEST):
                if written[file].read_bytes() != (GOLDEN_ROOT / name / file).read_bytes():
                    print(f"FAIL: golden case {name}: {file} differs from the committed file",
                          file=sys.stderr)
                    return 1
    dt = time.perf_counter() - t0
    print(f"golden regeneration     : {dt:8.4f} s  ({len(GOLDEN_CASES)} cases, byte-identical)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="two small design points + goldens only (CI smoke)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        points = [
            (TINY, QFormat(16, 8), 2),
            (TINY, QFormat(8, 4), 4),
        ]
        rc = bench_emit_check(points, n_images=1)
    else:
        blocks = ["layer1", "layer2_2", "layer3_2", TINY]
        formats = [QFormat(32, 20), QFormat(16, 8), QFormat(8, 4)]
        points = [(b, f, n) for b in blocks for f in formats for n in (1, 4, 16)]
        rc = bench_emit_check(points, n_images=2)
    return rc or bench_goldens()


if __name__ == "__main__":
    sys.exit(main())
