"""Benchmark / regeneration of Figure 5: parameter size versus depth N.

Regenerates the per-variant parameter-size curves and checks the reduction
percentages quoted in Section 4.2 exactly.
"""

from __future__ import annotations

import pytest

from repro.analysis import format_series
from repro.core import SUPPORTED_DEPTHS, VARIANT_NAMES, figure5_series, parameter_reduction_percent

from conftest import print_report

PAPER_REDUCTIONS = [
    ("ODENet", 20, 36.24),
    ("rODENet-3", 20, 43.29),
    ("ODENet", 56, 79.54),
    ("rODENet-3", 56, 81.80),
    ("Hybrid-3", 20, 26.43),
    ("Hybrid-3", 56, 60.16),
]


def test_figure5_regeneration(benchmark):
    series = benchmark(figure5_series)
    print_report("Figure 5: parameter size [kB] of ResNet, ODENet and rODENet variants", format_series(series))

    # Shape: ResNet/Hybrid grow with N; ODE variants are flat; ResNet largest.
    for depth in SUPPORTED_DEPTHS:
        assert series["ResNet"][depth] == max(series[v][depth] for v in VARIANT_NAMES)
    assert len({round(series["ODENet"][d], 6) for d in SUPPORTED_DEPTHS}) == 1
    assert series["Hybrid-3"][56] > series["Hybrid-3"][20]


def test_section42_reduction_percentages(benchmark):
    def reductions():
        return {(v, d): parameter_reduction_percent(v, d) for v, d, _ in PAPER_REDUCTIONS}

    results = benchmark(reductions)
    rows = [
        {"variant": v, "N": d, "paper_%": expected, "repro_%": round(results[(v, d)], 2)}
        for v, d, expected in PAPER_REDUCTIONS
    ]
    print_report("Section 4.2: parameter-size reduction vs ResNet-N", "\n".join(str(r) for r in rows))
    for v, d, expected in PAPER_REDUCTIONS:
        assert results[(v, d)] == pytest.approx(expected, abs=0.01)
