"""Ablation E11: fixed-point word length (footnote 2 of the paper).

"Although we used 32-bit fixed-point numbers, using reduced bit widths (e.g.,
16-bit or less) can implement more layers in PL part."

This ablation sweeps the word length of the stored weights / feature maps and
reports (a) the BRAM needed for each offloadable layer and whether more than
one layer fits simultaneously, and (b) the numerical error the narrower
datapath introduces on the ODEBlock output.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import format_records
from repro.api import Evaluator, scenario_grid
from repro.api import sweep as run_sweep
from repro.fixedpoint import Q8, Q12, Q16, Q20
from repro.fpga import BlockWeights, HardwareODEBlock, ZYNQ_XC7Z020
from repro.fpga.geometry import BlockGeometry

from conftest import print_report

FORMATS = (Q20, Q16, Q12, Q8)

#: rODENet-1 / -2 / -3 offload layer1 / layer2_2 / layer3_2 respectively, so
#: one scenario per (variant, word length) yields every per-layer BRAM demand.
LAYER_PROBES = ("rODENet-1", "rODENet-2", "rODENet-3")


def test_wordlength_bram_sweep(benchmark):
    grid = scenario_grid(
        models=LAYER_PROBES,
        depths=(56,),
        word_lengths=tuple(fmt.word_length for fmt in FORMATS),
    )

    def sweep():
        # Fresh evaluator per round: time the models, not the memo.
        results = run_sweep(grid, evaluator=Evaluator())
        tiles = {
            # BRAM demand is a tile count; int() undoes ResourceVector's
            # float arithmetic for display.
            (r.resources["targets"][0], r.scenario.word_length): int(r.resources["bram"])
            for r in results
        }
        rows = []
        for fmt in FORMATS:
            wl = fmt.word_length
            total_all = tiles["layer1", wl] + tiles["layer2_2", wl] + tiles["layer3_2", wl]
            rows.append(
                {
                    "format": fmt.name,
                    "layer1_bram": tiles["layer1", wl],
                    "layer2_2_bram": tiles["layer2_2", wl],
                    "layer3_2_bram": tiles["layer3_2", wl],
                    "all_three_bram": total_all,
                    "all_three_fit": total_all <= ZYNQ_XC7Z020.bram36,
                }
            )
        return rows

    rows = benchmark(sweep)
    print_report("Ablation E11: BRAM demand vs fixed-point word length", format_records(rows))

    # Narrower words need monotonically less BRAM ...
    totals = [r["all_three_bram"] for r in rows]
    assert all(a >= b for a, b in zip(totals, totals[1:]))
    # ... and the footnote's promise holds: at 32-bit all three layers do NOT
    # fit together, at 16-bit (or less) they do.
    assert rows[0]["all_three_fit"] is False
    assert rows[1]["all_three_fit"] is True


def test_wordlength_numerical_error(benchmark):
    """Output error of the fixed-point ODEBlock vs word length."""

    geometry = BlockGeometry(name="layer3_2", in_channels=8, out_channels=8, height=6, width=6)
    rng = np.random.default_rng(0)
    weights = BlockWeights.random(geometry, rng, scale=0.1)
    z = rng.normal(0, 0.3, size=(8, 6, 6))
    reference = HardwareODEBlock(geometry, weights, qformat=Q20).dynamics(z)

    def sweep():
        errors = {}
        for fmt in (Q16, Q12, Q8):
            out = HardwareODEBlock(geometry, weights, qformat=fmt).dynamics(z)
            errors[fmt.word_length] = float(np.max(np.abs(out - reference)))
        return errors

    errors = benchmark(sweep)
    rows = [
        {"word_length": bits, "max_abs_error_vs_Q20": round(err, 5)}
        for bits, err in sorted(errors.items(), reverse=True)
    ]
    print_report("Ablation E11: ODEBlock output error vs word length", format_records(rows))

    # Narrower datapaths are strictly less accurate.
    assert errors[8] > errors[16]
    assert errors[12] >= errors[16]
