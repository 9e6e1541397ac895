"""Benchmark / regeneration of the Section-3.1 conv_xN cycle-count scaling.

Regenerates the layer3_2 execution-cycle counts for conv_x1 / x4 / x8 / x16 /
x32 (23.78M / 6.07M / 3.12M / 1.64M / 0.90M in the paper) and benchmarks one
actual fixed-point ODEBlock execution of the simulated PL datapath.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import format_records
from repro.fpga import (
    LAYER3_2,
    PAPER_LAYER3_2_CYCLES,
    BlockWeights,
    HardwareODEBlock,
    OdeBlockCycleModel,
    TimingModel,
)
from repro.fpga.geometry import BlockGeometry

from conftest import print_report


def test_conv_parallelism_cycle_scaling(benchmark):
    cycle_model = OdeBlockCycleModel()
    timing = TimingModel()

    def sweep():
        rows = []
        for n_units, published in sorted(PAPER_LAYER3_2_CYCLES.items()):
            breakdown = cycle_model.block_cycles(LAYER3_2, n_units)
            rows.append(
                {
                    "config": f"conv_x{n_units}",
                    "paper_Mcycles": round(published / 1e6, 2),
                    "repro_Mcycles": round(breakdown.total / 1e6, 2),
                    "conv_Mcycles": round(breakdown.conv_cycles / 1e6, 2),
                    "bn_Mcycles": round(breakdown.bn_cycles / 1e6, 2),
                    "time_ms_at_100MHz": round(breakdown.time_seconds(100e6) * 1e3, 2),
                    "meets_100MHz": timing.analyze(n_units).meets_timing,
                }
            )
        return rows

    rows = benchmark(sweep)
    print_report("Section 3.1: layer3_2 execution cycles vs multiply-add units", format_records(rows))

    for row, (n_units, published) in zip(rows, sorted(PAPER_LAYER3_2_CYCLES.items())):
        assert row["repro_Mcycles"] == pytest.approx(published / 1e6, rel=0.02)
    assert rows[-1]["meets_100MHz"] is False  # conv_x32
    assert all(r["meets_100MHz"] for r in rows[:-1])


def test_simulated_pl_datapath_throughput(benchmark):
    """Wall-clock cost of one bit-accurate Q20 ODEBlock execution (small block)."""

    geometry = BlockGeometry(name="layer3_2", in_channels=16, out_channels=16, height=8, width=8)
    rng = np.random.default_rng(0)
    hw = HardwareODEBlock(geometry, BlockWeights.random(geometry, rng))
    z = rng.normal(0, 0.3, size=(1, 16, 8, 8))

    out = benchmark(hw.execute_batch, z)
    assert out.shape == z.shape
