#!/usr/bin/env python3
"""Design-space exploration across variants, depths, parallelism and word length.

The paper evaluates one design point in detail (rODENet-3-N with conv_x16 and
32-bit Q20).  This example drives the unified scenario API
(``Scenario -> Evaluator -> Result``, see ``repro.api``) across the wider
design space a deployment engineer would care about:

* every architecture and depth: parameter size, modelled accuracy, modelled
  prediction time with its paper offload target, and overall speedup;
* for the best trade-off (rODENet-3), the MAC-unit parallelism sweep and the
  word-length sweep, including whether multiple layers could share the PL.

Every table below is one :func:`repro.api.sweep` call over a scenario grid —
the same engine behind ``repro-odenet sweep``.

Run:  python examples/design_space.py
"""

from __future__ import annotations

from repro.analysis import format_records
from repro.api import DEFAULT_FRACTION_BITS, Evaluator, Scenario, scenario_grid, sweep
from repro.core import SUPPORTED_DEPTHS, TABLE5_MODELS
from repro.fpga import ZYNQ_XC7Z020

# One evaluator serves every sweep; scenarios that share knobs share models.
EVALUATOR = Evaluator()


def sweep_architectures() -> None:
    print("=== Architecture / depth sweep (parameter size, accuracy, speedup) ===")
    results = sweep(
        scenario_grid(models=TABLE5_MODELS, depths=SUPPORTED_DEPTHS),
        evaluator=EVALUATOR,
    )
    rows = [
        {
            "model": r.scenario.full_name,
            "params_MB": round(r.parameters["param_bytes"] / 1e6, 2),
            "cifar100_acc_%": r.parameters["accuracy_pct"],
            "stable": r.parameters["accuracy_stable"],
            "offload": "/".join(r.resources["targets"]) or "-",
            "time_w_PL_s": round(r.timing["total_w_pl_s"], 2),
            "speedup": round(r.timing["overall_speedup"], 2),
        }
        for r in results
    ]
    print(format_records(rows))


def sweep_parallelism() -> None:
    print("\n=== rODENet-3-56: MAC-unit parallelism sweep ===")
    results = sweep(
        scenario_grid(models=("rODENet-3",), depths=(56,), n_units=(1, 2, 4, 8, 16, 32)),
        evaluator=EVALUATOR,
    )
    rows = [
        {
            "n_units": r.scenario.n_units,
            "speedup": round(r.timing["overall_speedup"], 2),
            "dsp": r.resources["dsp"],
            "fits": r.resources["fits_device"],
            "meets_100MHz": r.resources["meets_timing"],
        }
        for r in results
    ]
    print(format_records(rows))
    feasible = [r.scenario.n_units for r in results
                if r.resources["fits_device"] and r.resources["meets_timing"]]
    print(f"  -> largest feasible parallelism for layer3_2: conv_x{max(feasible)}"
          " (the paper uses conv_x16)")


def sweep_wordlength() -> None:
    print("\n=== Word-length sweep (footnote 2): can more layers share the PL? ===")
    # rODENet-1 / -2 / -3 offload layer1 / layer2_2 / layer3_2 respectively,
    # so one sweep per word length yields every per-layer BRAM demand.
    rows = []
    for wl in (32, 16, 12, 8):
        per_layer = {}
        for model in ("rODENet-1", "rODENet-2", "rODENet-3"):
            scenario = Scenario(model=model, depth=56, word_length=wl,
                                fraction_bits=DEFAULT_FRACTION_BITS[wl])
            result = EVALUATOR.evaluate(scenario)
            per_layer[result.resources["targets"][0]] = int(result.resources["bram"])
        rows.append(
            {
                "word_length": wl,
                "layer1+layer2_2_fit": per_layer["layer1"] + per_layer["layer2_2"]
                <= ZYNQ_XC7Z020.bram36,
                "layer1+layer3_2_fit": per_layer["layer1"] + per_layer["layer3_2"]
                <= ZYNQ_XC7Z020.bram36,
                "all_three_fit": sum(per_layer.values()) <= ZYNQ_XC7Z020.bram36,
                "total_bram": sum(per_layer.values()),
            }
        )
    print(format_records(rows))


def main() -> None:
    sweep_architectures()
    sweep_parallelism()
    sweep_wordlength()
    print(
        "\nSummary: rODENet-3 keeps the accuracy/stability of the deeper variants with a\n"
        "~5x parameter reduction and the best end-to-end speedup once layer3_2 is on the\n"
        "PL part — the same conclusion the paper draws in Section 4.4."
    )


if __name__ == "__main__":
    main()
