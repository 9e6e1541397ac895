"""Ablation E12: energy per prediction with and without the PL offload.

The paper motivates FPGAs as "an energy-efficient solution" but reports no
power numbers.  This ablation combines the Table-5 execution-time model with
the documented Zynq-7000 power figures (see ``repro.fpga.power``) to estimate
the per-prediction energy of each architecture, answering whether the offload
saves energy as well as time.
"""

from __future__ import annotations

import pytest

from repro.analysis import format_records
from repro.api import Evaluator, scenario_grid
from repro.api import sweep as run_sweep

from conftest import print_report

MODELS = ("ResNet", "rODENet-1", "rODENet-2", "rODENet-3", "ODENet-3", "Hybrid-3")


def test_energy_per_prediction(benchmark):
    grid = scenario_grid(models=MODELS, depths=(56,))

    def sweep():
        # Fresh evaluator per round: time the models, not the memo.
        rows = []
        for result in run_sweep(grid, evaluator=Evaluator()):
            rows.append(
                {
                    "model": result.scenario.full_name,
                    "energy_sw_J": round(result.energy["energy_without_pl_J"], 3),
                    "energy_offloaded_J": round(result.energy["energy_with_pl_J"], 3),
                    "energy_ratio": round(result.energy["energy_ratio"], 2),
                    "time_speedup": round(result.energy["time_speedup"], 2),
                }
            )
        return rows

    rows = benchmark(sweep)
    print_report("Ablation E12: energy per prediction at N=56 (modelled)", format_records(rows))

    by_model = {r["model"]: r for r in rows}
    # The offload saves energy for every variant that benefits in time ...
    for name in ("rODENet-1-56", "rODENet-2-56", "rODENet-3-56"):
        assert by_model[name]["energy_ratio"] > 2.0
        # ... and the energy ratio beats the time speedup because the PS
        # idles while the PL computes.
        assert by_model[name]["energy_ratio"] > by_model[name]["time_speedup"]
    # rODENet-3 is the most energy-efficient of the evaluated designs.
    best = max(rows, key=lambda r: r["energy_ratio"])
    assert best["model"] in ("rODENet-3-56", "rODENet-1-56")
