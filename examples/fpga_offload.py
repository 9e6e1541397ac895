#!/usr/bin/env python3
"""FPGA offload walkthrough: resources, timing, cycles and fidelity.

Reproduces the hardware-facing part of the paper on the simulated PYNQ-Z2:

* Table 3  — resource utilisation of layer1 / layer2_2 / layer3_2 for
  conv_x1..x16 (published Vivado numbers next to the analytical model);
* Section 3.1 — layer3_2 execution cycles versus the MAC-unit count, and the
  timing-closure observation that conv_x32 misses 100 MHz;
* Section 4.4 — per-invocation PL time including the 1-cycle-per-float32 DMA
  assumption;
* a functional check: a trained (random-weight) ODEBlock executed on the
  bit-accurate Q20 datapath against its float reference.

Run:  python examples/fpga_offload.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis import format_records, table3_records
from repro.fpga import (
    LAYER1,
    LAYER2_2,
    LAYER3_2,
    PYNQ_Z2,
    AxiTransferModel,
    BlockWeights,
    HardwareODEBlock,
    OdeBlockCycleModel,
    TimingModel,
)


def show_table3() -> None:
    print("=== Table 3: resource utilisation (published vs analytical model) ===")
    print(format_records(table3_records(include_estimates=True)))


def show_cycle_scaling() -> None:
    print("\n=== Section 3.1: layer3_2 cycles vs multiply-add units ===")
    cycles = OdeBlockCycleModel()
    timing = TimingModel()
    rows = []
    for n in (1, 4, 8, 16, 32):
        breakdown = cycles.block_cycles(LAYER3_2, n)
        rows.append(
            {
                "config": f"conv_x{n}",
                "Mcycles": round(breakdown.total / 1e6, 2),
                "ms @ 100MHz": round(breakdown.time_seconds(PYNQ_Z2.pl_clock_hz) * 1e3, 2),
                "fmax [MHz]": round(timing.fmax_hz(n) / 1e6, 1),
                "meets 100MHz": timing.analyze(n).meets_timing,
            }
        )
    print(format_records(rows))
    print("  (paper: 23.78M / 6.07M / 3.12M / 1.64M / 0.90M cycles; conv_x32 misses timing)")


def show_per_block_latency() -> None:
    print("\n=== Per-invocation PL latency (compute + DMA) at conv_x16 ===")
    cycles = OdeBlockCycleModel()
    axi = AxiTransferModel()
    rows = []
    for geom in (LAYER1, LAYER2_2, LAYER3_2):
        compute = cycles.block_time_seconds(geom, 16)
        transfer = axi.block_round_trip(geom).seconds
        rows.append(
            {
                "layer": geom.name,
                "compute [ms]": round(compute * 1e3, 2),
                "DMA [ms]": round(transfer * 1e3, 3),
                "total [ms]": round((compute + transfer) * 1e3, 2),
            }
        )
    print(format_records(rows))


def show_fixed_point_fidelity() -> None:
    print("\n=== Q20 fixed-point ODEBlock vs float reference (functional check) ===")
    rng = np.random.default_rng(0)
    weights = BlockWeights.random(LAYER3_2, rng, scale=0.05)
    hw = HardwareODEBlock(LAYER3_2, weights, n_units=16)
    z = rng.normal(0, 0.4, size=(64, 8, 8))
    out, report = hw.execute(z)
    print(f"  input feature map   : {z.shape}")
    print(f"  output feature map  : {out.shape}")
    print(f"  modelled PL compute : {report.compute_seconds * 1e3:.2f} ms")
    print(f"  modelled DMA        : {report.transfer_seconds * 1e6:.1f} µs")
    print(f"  output value range  : [{out.min():.3f}, {out.max():.3f}]")
    est = hw.resource_estimate()
    print(f"  resource estimate   : {est.resources.as_dict()} (fits: {est.fits()})")
    print(f"  timing at 100 MHz   : meets={hw.timing_report().meets_timing}")


def main() -> None:
    show_table3()
    show_cycle_scaling()
    show_per_block_latency()
    show_fixed_point_fidelity()


if __name__ == "__main__":
    main()
