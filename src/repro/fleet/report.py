"""Fleet run outcomes: per-cell raw results and the merged :class:`FleetReport`.

:class:`CellResult` is the picklable unit a shard process returns — counters,
per-class latency/wait samples (:class:`~repro.sim.metrics.QuantileSketch`
stores) and per-board ledgers.  :func:`merge_cells` folds them (in ascending
cell order, so float sums and sample order are bit-identical for any shard
count) into the :class:`FleetReport` the CLI, benchmarks and tests consume;
its percentiles are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..sim.metrics import QuantileSketch, ServingReport, energy_section, text_row

__all__ = ["ClassCell", "BoardCell", "CellResult", "FleetReport", "merge_cells"]


@dataclass
class ClassCell:
    """One traffic class's tally within one cell, filled by either fidelity."""

    name: str
    kind: str
    slo_s: Optional[float]
    offered: int = field(default=0, init=False)
    rejected: int = field(default=0, init=False)
    completed: int = field(default=0, init=False)
    violations: int = field(default=0, init=False)
    latency: QuantileSketch = field(default_factory=QuantileSketch, init=False)
    wait: QuantileSketch = field(default_factory=QuantileSketch, init=False)

    def served(self, latency: float, wait: float) -> None:
        """Record one completed request."""

        self.completed += 1
        self.latency.insert(latency)
        self.wait.insert(wait)
        if self.slo_s is not None and latency > self.slo_s:
            self.violations += 1


@dataclass
class BoardCell:
    """One physical board's ledger within one cell."""

    index: int
    group: int
    name: str
    replicas: int
    served: int
    busy_seconds: float
    powered_seconds: float
    energy: Dict[str, Optional[float]]


@dataclass
class CellResult:
    """Everything one shared-nothing cell produced."""

    cell: int
    offered: int
    rejected: int
    completed: int
    classes: List[ClassCell]
    boards: List[BoardCell]
    horizon_s: float
    events: int
    autoscale: Optional[Dict[str, object]] = None


@dataclass(frozen=True, kw_only=True)
class FleetReport(ServingReport):
    """The merged outcome of one fleet simulation."""

    JSON_KEYS = (
        "scenario", "requests", "horizon_s", "throughput_rps", "latency", "wait", "classes",
        "boards", "energy", "cells", "shards", "events_processed", "autoscale",
    )
    COUNTED = ("offered", "rejected", "completed")

    classes: List[Dict[str, object]]
    boards: List[Dict[str, object]]
    cells: int
    shards: int
    autoscale: Optional[Dict[str, object]] = None

    def render(self) -> str:
        """Multi-section plain-text report (the ``fleet`` subcommand output)."""

        s = self.scenario
        middle = ["[classes]"]
        for c in self.classes:
            slo = f", slo={c['slo_s']:.4g} s" if c["slo_s"] is not None else ""
            p99 = c["latency"]["p99_s"]
            p99_text = f"{p99:.6g} s" if p99 is not None and np.isfinite(p99) else "n/a"
            middle.append(
                f"  {c['name']:<12} ({c['kind']}): offered {c['offered']}, "
                f"rejected {c['rejected']}, violations {c['violations']}{slo}, "
                f"p99 {p99_text}"
            )
        middle.append("[boards]")
        for b in self.boards:
            util = b["utilization"]
            util_text = f"{100.0 * util:.1f} %" if util is not None and np.isfinite(util) else "n/a"
            middle.append(
                f"  {b['count']}x {b['board']:<12}: {b['replicas_per_board']} replica(s) "
                f"each, served {b['served']}, util {util_text}, "
                f"powered {b['powered_fraction'] * 100.0:.1f} %, "
                f"{b['total_energy_J']:.6g} J"
            )
        if self.autoscale is not None:
            a = self.autoscale
            middle += [
                "[autoscale]",
                text_row(
                    "power-ups",
                    f"{a['power_ups']} (power-downs {a['power_downs']}, "
                    f"final powered {a['final_powered']})",
                ),
            ]
        inventory = ", ".join(f"{g['count']}x {g['board']}" for g in s["boards"])
        return self._render(
            f"Fleet serving: {inventory} | {len(self.classes)} class(es), "
            f"routing={s['routing']}, admission={s['admission']}, "
            f"autoscale={'on' if s['autoscale'] else 'off'}, "
            f"fidelity={s['fidelity']}",
            middle,
            [
                f"[reproducibility] seed={s['seed']}  cells={self.cells}  "
                f"shards={self.shards} (shard count never changes the numbers)"
            ],
        )


def merge_cells(
    scenario_dict: Dict[str, object],
    results: List[CellResult],
    shards: int,
) -> FleetReport:
    """Fold per-cell results (ascending cell order) into one report.

    Samples are concatenated and float counters summed in that fixed order,
    so the merged report is bit-identical for any shard count.
    """

    results = sorted(results, key=lambda r: r.cell)
    n_classes = len(results[0].classes)

    offered = sum(r.offered for r in results)
    rejected = sum(r.rejected for r in results)
    completed = sum(r.completed for r in results)
    horizon = max(r.horizon_s for r in results)
    events = sum(r.events for r in results)

    latency_sketch = QuantileSketch()
    wait_sketch = QuantileSketch()
    classes: List[Dict[str, object]] = []
    for ci in range(n_classes):
        first = results[0].classes[ci]
        cls_latency = QuantileSketch()
        cls_wait = QuantileSketch()
        for r in results:
            cls_latency.merge(r.classes[ci].latency)
            cls_wait.merge(r.classes[ci].wait)
        latency_sketch.merge(cls_latency)
        wait_sketch.merge(cls_wait)
        cls_offered = sum(r.classes[ci].offered for r in results)
        cls_rejected = sum(r.classes[ci].rejected for r in results)
        classes.append(
            {
                "name": first.name,
                "kind": first.kind,
                "slo_s": first.slo_s,
                "offered": cls_offered,
                "rejected": cls_rejected,
                "completed": sum(r.classes[ci].completed for r in results),
                "violations": sum(r.classes[ci].violations for r in results),
                "latency": cls_latency.stats().as_dict(),
                "wait_mean_s": cls_wait.mean,
            }
        )

    # Per board *group* (board type), aggregated over the group's physical
    # boards across every cell.
    groups: Dict[int, Dict[str, object]] = {}
    for r in results:
        for b in r.boards:
            g = groups.setdefault(
                b.group,
                {
                    "board": b.name,
                    "count": 0,
                    "replicas_per_board": b.replicas,
                    "served": 0,
                    "busy_seconds": 0.0,
                    "powered_seconds": 0.0,
                    "ps_energy_J": 0.0,
                    "pl_energy_J": 0.0,
                    "total_energy_J": 0.0,
                    "slot_seconds": 0.0,
                },
            )
            g["count"] += 1
            g["served"] += b.served
            g["busy_seconds"] += b.busy_seconds
            g["powered_seconds"] += b.powered_seconds
            g["slot_seconds"] += b.replicas * b.powered_seconds
            for key in ("ps_energy_J", "pl_energy_J", "total_energy_J"):
                g[key] += b.energy[key]
    boards: List[Dict[str, object]] = []
    for gi in sorted(groups):
        g = groups[gi]
        slot_seconds = g.pop("slot_seconds")
        busy = g.pop("busy_seconds")
        g["utilization"] = busy / slot_seconds if slot_seconds > 0 else float("nan")
        g["powered_fraction"] = (
            g["powered_seconds"] / (g["count"] * horizon) if horizon > 0 else float("nan")
        )
        boards.append(g)

    energy = energy_section(
        sum(g["ps_energy_J"] for g in boards),
        sum(g["pl_energy_J"] for g in boards),
        completed,
        horizon,
    )

    autoscale: Optional[Dict[str, object]] = None
    if any(r.autoscale is not None for r in results):
        autoscale = {
            "events": sum((r.autoscale or {}).get("events", 0) for r in results),
            "power_ups": sum((r.autoscale or {}).get("power_ups", 0) for r in results),
            "power_downs": sum((r.autoscale or {}).get("power_downs", 0) for r in results),
            "final_powered": sum((r.autoscale or {}).get("final_powered", 0) for r in results),
        }

    return FleetReport(
        scenario=scenario_dict,
        requests={
            "offered": offered,
            "admitted": offered - rejected,
            "rejected": rejected,
            "completed": completed,
        },
        horizon_s=horizon,
        throughput_rps=completed / horizon if horizon > 0 else float("nan"),
        latency=latency_sketch.stats(),
        wait=wait_sketch.stats(),
        classes=classes,
        boards=boards,
        energy=energy,
        cells=len(results),
        shards=shards,
        events_processed=events,
        autoscale=autoscale,
        latency_sketch=latency_sketch,
        wait_sketch=wait_sketch,
    )
