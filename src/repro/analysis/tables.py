"""Row generators for every table of the paper.

Each ``tableN_records`` function returns a list of plain dictionaries (one per
table row) so that benchmarks, examples and tests can consume the data
directly, and :func:`repro.analysis.report.format_records` can print it in
the same layout as the paper.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..core.execution_model import TABLE5_MODELS
from ..core.parameter_model import table2_structure
from ..core.variants import SUPPORTED_DEPTHS, table4_rows
from ..platform import PYNQ_Z2
from ..fpga.resources import ResourceEstimator, published_table3

__all__ = [
    "table1_records",
    "table2_records",
    "table3_records",
    "table4_records",
    "table5_records",
]


def table1_records() -> List[Dict[str, object]]:
    """Table 1: specification of the PYNQ-Z2 board."""

    board = PYNQ_Z2
    return [
        {"item": "OS", "value": board.os_name},
        {"item": "CPU", "value": f"ARM Cortex-A9 @ {board.ps_clock_mhz:.0f}MHz x {board.ps_cores}"},
        {"item": "DRAM", "value": f"{board.dram_mb}MB (DDR3)"},
        {"item": "FPGA", "value": f"Xilinx {board.fpga.name}"},
    ]


def table2_records() -> List[Dict[str, object]]:
    """Table 2: network structure of ODENet with per-layer parameter sizes."""

    return [entry.as_dict() for entry in table2_structure()]


def table3_records(include_estimates: bool = True) -> List[Dict[str, object]]:
    """Table 3: resource utilisation of layer1 / layer2_2 / layer3_2.

    Each record carries the paper's published Vivado counts/percentages and,
    when ``include_estimates`` is True, the analytical model's estimates side
    by side.
    """

    estimator = ResourceEstimator()
    published = published_table3()
    records: List[Dict[str, object]] = []
    for (layer, n_units), entry in published.items():
        record: Dict[str, object] = {
            "layer": layer,
            "parallelism": f"conv_{n_units}",
            "bram": int(entry["bram"]),
            "bram_pct": round(entry["bram_pct"], 2),
            "dsp": int(entry["dsp"]),
            "dsp_pct": round(entry["dsp_pct"], 2),
            "lut": int(entry["lut"]),
            "lut_pct": round(entry["lut_pct"], 2),
            "ff": int(entry["ff"]),
            "ff_pct": round(entry["ff_pct"], 2),
        }
        if include_estimates:
            est = estimator.estimate(layer, n_units=n_units).resources
            record.update(
                {
                    "model_bram": round(est.bram, 1),
                    "model_dsp": round(est.dsp, 1),
                    "model_lut": round(est.lut, 1),
                    "model_ff": round(est.ff, 1),
                }
            )
        records.append(record)
    return records


def table4_records(depth: int = 56) -> List[Dict[str, object]]:
    """Table 4: stacked blocks / executions per block for each variant."""

    rows = table4_rows(depth)
    records: List[Dict[str, object]] = []
    for layer, cells in rows.items():
        record: Dict[str, object] = {"layer": layer}
        record.update(cells)
        records.append(record)
    return records


def table5_records(
    depths: Sequence[int] = SUPPORTED_DEPTHS,
    n_units: int = 16,
) -> List[Dict[str, object]]:
    """Table 5: execution times and speedups of the seven architectures.

    One row per model x depth, each the
    :meth:`repro.api.Evaluator.execution_report` of that design point, so the
    table, ``eval`` and the design-space sweeps share one timing path.  The
    import is local to keep :mod:`repro.analysis` importable before
    :mod:`repro.api` during package initialisation.
    """

    from ..api import Evaluator, Scenario

    evaluator = Evaluator()
    records: List[Dict[str, object]] = []
    for model in TABLE5_MODELS:
        for depth in depths:
            report = evaluator.execution_report(Scenario(model=model, depth=depth, n_units=n_units))
            rec = report.as_dict()
            rec["target_wo_pl_s"] = " / ".join(f"{t:.2f}" for t in report.target_without_pl) or "-"
            rec["ratio_of_target_pct"] = " / ".join(f"{t:.2f}" for t in report.target_ratio_percent) or "-"
            rec["target_w_pl_s"] = " / ".join(f"{t:.2f}" for t in report.target_with_pl) or "-"
            rec["total_wo_pl_s"] = round(report.total_without_pl, 3)
            rec["total_w_pl_s"] = round(report.total_with_pl, 3)
            rec["overall_speedup"] = round(report.overall_speedup, 2)
            records.append(rec)
    return records
