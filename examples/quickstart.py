#!/usr/bin/env python3
"""Quickstart: build an rODENet, inspect it, and estimate its FPGA offload.

This walks through the paper's main flow in under a minute of CPU time:

1. build the rODENet-3-56 architecture (Table 4);
2. look at its parameter size versus ResNet-56 (Figure 5 / Section 4.2);
3. plan the FPGA offload of its heavily-used layer3_2 ODEBlock
   (resource + timing feasibility, Section 3.2);
4. reproduce the headline execution-time result: 2.66x overall speedup on
   the PYNQ-Z2 when layer3_2 runs on the programmable logic (Table 5);
5. run an actual prediction through the hardware/software co-execution
   runtime (reduced-width model so it is fast on a laptop CPU).

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis import format_records
from repro.core import (
    ExecutionTimeModel,
    OffloadPlanner,
    build_network,
    count_block_executions,
    parameter_reduction_percent,
    variant_parameter_bytes,
    variant_spec,
)
from repro.hwsw import HwSwRuntime, Partition


def main() -> None:
    # ------------------------------------------------------------------ 1
    spec = variant_spec("rODENet-3", 56)
    print("=== rODENet-3-56 structure (Table 4) ===")
    for plan in spec:
        print(f"  {plan.layer:10s} {plan.realization:10s} stacked/executions = {plan.as_table_cell()}")

    # ------------------------------------------------------------------ 2
    resnet_bytes = variant_parameter_bytes("ResNet", 56)
    rodenet_bytes = variant_parameter_bytes("rODENet-3", 56)
    reduction = parameter_reduction_percent("rODENet-3", 56)
    print("\n=== Parameter size (Section 4.2) ===")
    print(f"  ResNet-56    : {resnet_bytes / 1e6:.2f} MB")
    print(f"  rODENet-3-56 : {rodenet_bytes / 1e6:.2f} MB  ({reduction:.2f}% smaller; paper: 81.80%)")

    # ------------------------------------------------------------------ 3
    planner = OffloadPlanner(n_units=16)
    decision = planner.plan("rODENet-3", 56)
    print("\n=== Offload plan (Section 3.2) ===")
    print(f"  targets        : {decision.targets}")
    print(f"  PL resources   : {decision.resources.as_dict()}")
    print(f"  fits XC7Z020   : {decision.fits_device}")
    print(f"  closes 100 MHz : {decision.meets_timing}")

    # ------------------------------------------------------------------ 4
    model = ExecutionTimeModel(n_units=16)
    rows = []
    for name in ("ResNet", "rODENet-3"):
        report = model.report(name, 56)
        rows.append(
            {
                "model": f"{name}-56",
                "total w/o PL [s]": round(report.total_without_pl, 2),
                "total w/ PL [s]": round(report.total_with_pl, 2),
                "overall speedup": round(report.overall_speedup, 2),
            }
        )
    print("\n=== Execution time (Table 5) ===")
    print(format_records(rows))
    print(f"  vs software ResNet-56: {model.speedup_vs_resnet('rODENet-3', 56):.2f}x  (paper: 2.67x)")

    # ------------------------------------------------------------------ 5
    print("\n=== Co-execution prediction (reduced-width functional model) ===")
    small = build_network("rODENet-3", 20, num_classes=10, base_width=4)
    small.eval()
    print(f"  block executions per image: {count_block_executions(small)}")
    runtime = HwSwRuntime(small, Partition.offload("layer3_2"))
    images = np.random.default_rng(0).normal(0, 0.5, size=(2, 3, 32, 32))
    logits, report = runtime.predict(images)
    fidelity = runtime.fidelity(images)
    print(f"  predicted classes          : {logits.argmax(axis=1).tolist()}")
    print(f"  layer3_2 PL invocations    : {report.pl_invocations}")
    print(f"  modelled speedup (board)   : {report.modeled_speedup:.2f}x")
    print(f"  max logit diff HW vs SW    : {fidelity['max_logit_diff']:.2e}")
    print(f"  top-1 agreement HW vs SW   : {fidelity['top1_agreement']:.2f}")


if __name__ == "__main__":
    main()
