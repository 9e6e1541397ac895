"""Fleet run outcomes: per-cell raw results and the merged :class:`FleetReport`.

:class:`CellResult` is the picklable unit a shard process returns — counters,
per-class latency/wait :class:`~repro.sim.metrics.QuantileSketch` objects and
per-board ledgers.  :func:`merge_cells` folds them (in ascending cell order,
so float sums are bit-identical for any shard count) into the
:class:`FleetReport` the CLI, benchmarks and tests consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..analysis.report import json_safe
from ..sim.metrics import LatencyStats, QuantileSketch

__all__ = ["ClassCell", "BoardCell", "CellResult", "FleetReport", "merge_cells"]


@dataclass
class ClassCell:
    """One traffic class's tally within one cell."""

    name: str
    kind: str
    offered: int
    rejected: int
    completed: int
    violations: int
    slo_s: Optional[float]
    latency: QuantileSketch
    wait: QuantileSketch


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
    energy: Dict[str, float]
    utilization: float
    powered_final: bool


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
    #: Event-fidelity only: the per-board ``SimReport.as_dict()`` payloads.
    board_reports: Optional[List[Dict[str, object]]] = None


@dataclass(frozen=True)
class FleetReport:
    """The merged outcome of one fleet simulation."""

    scenario: Dict[str, object]
    requests: Dict[str, int]
    horizon_s: float
    throughput_rps: float
    latency: LatencyStats
    wait: LatencyStats
    classes: List[Dict[str, object]]
    boards: List[Dict[str, object]]
    energy: Dict[str, object]
    cells: int
    shards: int
    events_processed: int
    autoscale: Optional[Dict[str, object]] = None
    board_reports: Optional[List[Dict[str, object]]] = None
    #: The merged sketches behind ``latency``/``wait`` (not serialised).
    latency_sketch: Optional[QuantileSketch] = field(default=None, repr=False, compare=False)
    wait_sketch: Optional[QuantileSketch] = field(default=None, repr=False, compare=False)

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "scenario": dict(self.scenario),
            "requests": dict(self.requests),
            "horizon_s": self.horizon_s,
            "throughput_rps": self.throughput_rps,
            "latency": self.latency.as_dict(),
            "wait": self.wait.as_dict(),
            "classes": [dict(c) for c in self.classes],
            "boards": [dict(b) for b in self.boards],
            "energy": dict(self.energy),
            "cells": self.cells,
            "shards": self.shards,
            "events_processed": self.events_processed,
        }
        if self.autoscale is not None:
            out["autoscale"] = dict(self.autoscale)
        if self.board_reports is not None:
            out["board_reports"] = [dict(r) for r in self.board_reports]
        return json_safe(out)

    def render(self) -> str:
        """Multi-section plain-text report (the ``fleet`` subcommand output)."""

        s = self.scenario
        lines: List[str] = []
        inventory = ", ".join(f"{g['count']}x {g['board']}" for g in s["boards"])
        lines.append(
            f"Fleet serving: {inventory} | {len(self.classes)} class(es), "
            f"routing={s['routing']}, admission={s['admission']}, "
            f"autoscale={'on' if s['autoscale'] else 'off'}, "
            f"fidelity={s['fidelity']}"
        )
        lines.append("[requests]")
        lines.append(f"  offered            : {self.requests['offered']}")
        lines.append(f"  rejected           : {self.requests['rejected']}")
        lines.append(f"  completed          : {self.requests['completed']}")
        lines.append(f"  horizon            : {self.horizon_s:.4g} s")
        lines.append(f"  throughput         : {self.throughput_rps:.4g} req/s")
        lat = self.latency
        lines.append("[latency]")
        lines.append(f"  mean               : {lat.mean:.6g} s")
        for q in sorted(lat.percentiles):
            lines.append(f"  {f'p{q}'.ljust(19)}: {lat.percentiles[q]:.6g} s")
        lines.append(f"  max                : {lat.maximum:.6g} s")
        lines.append(f"  mean queueing wait : {self.wait.mean:.6g} s")
        lines.append("[classes]")
        for c in self.classes:
            slo = f", slo={c['slo_s']:.4g} s" if c["slo_s"] is not None else ""
            p99 = c["latency"]["p99_s"]
            p99_text = f"{p99:.6g} s" if p99 is not None and np.isfinite(p99) else "n/a"
            lines.append(
                f"  {c['name']:<12} ({c['kind']}): offered {c['offered']}, "
                f"rejected {c['rejected']}, violations {c['violations']}{slo}, "
                f"p99 {p99_text}"
            )
        lines.append("[boards]")
        for b in self.boards:
            util = b["utilization"]
            util_text = f"{100.0 * util:.1f} %" if util is not None and np.isfinite(util) else "n/a"
            lines.append(
                f"  {b['count']}x {b['board']:<12}: {b['replicas_per_board']} replica(s) "
                f"each, served {b['served']}, util {util_text}, "
                f"powered {b['powered_fraction'] * 100.0:.1f} %, "
                f"{b['total_energy_J']:.6g} J"
            )
        if self.autoscale is not None:
            a = self.autoscale
            lines.append("[autoscale]")
            lines.append(
                f"  power-ups          : {a['power_ups']} "
                f"(power-downs {a['power_downs']}, final powered {a['final_powered']})"
            )
        lines.append("[energy]")
        lines.append(f"  PS                 : {self.energy['ps_energy_J']:.6g} J")
        lines.append(f"  PL                 : {self.energy['pl_energy_J']:.6g} J")
        per_request = self.energy["energy_per_request_J"]
        lines.append(
            "  per request        : "
            + (f"{per_request:.6g} J" if per_request is not None else "n/a (0 completed)")
        )
        lines.append(f"  average power      : {self.energy['average_power_W']:.6g} W")
        lines.append(
            f"[reproducibility] seed={s['seed']}  cells={self.cells}  "
            f"shards={self.shards} (shard count never changes the numbers)"
        )
        lines.append(f"[engine] {self.events_processed} events processed")
        return "\n".join(lines)


def merge_cells(
    scenario_dict: Dict[str, object],
    results: List[CellResult],
    shards: int,
    exact: bool,
) -> FleetReport:
    """Fold per-cell results (ascending cell order) into one report.

    Sketch merging is commutative; the float counters are folded in a fixed
    order anyway, so the merged report is bit-identical for any shard count.
    """

    results = sorted(results, key=lambda r: r.cell)
    n_classes = len(results[0].classes)

    def fresh() -> QuantileSketch:
        return QuantileSketch(exact=exact)

    offered = sum(r.offered for r in results)
    rejected = sum(r.rejected for r in results)
    completed = sum(r.completed for r in results)
    horizon = max(r.horizon_s for r in results)
    events = sum(r.events for r in results)

    latency_sketch = fresh()
    wait_sketch = fresh()
    classes: List[Dict[str, object]] = []
    for ci in range(n_classes):
        first = results[0].classes[ci]
        cls_latency = fresh()
        cls_wait = fresh()
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

    ps_j = sum(g["ps_energy_J"] for g in boards)
    pl_j = sum(g["pl_energy_J"] for g in boards)
    total_j = ps_j + pl_j
    energy = {
        "ps_energy_J": ps_j,
        "pl_energy_J": pl_j,
        "total_energy_J": total_j,
        "energy_per_request_J": total_j / completed if completed else None,
        "average_power_W": total_j / horizon if horizon > 0 else 0.0,
    }

    autoscale: Optional[Dict[str, object]] = None
    if any(r.autoscale is not None for r in results):
        autoscale = {
            "events": sum((r.autoscale or {}).get("events", 0) for r in results),
            "power_ups": sum((r.autoscale or {}).get("power_ups", 0) for r in results),
            "power_downs": sum((r.autoscale or {}).get("power_downs", 0) for r in results),
            "final_powered": sum((r.autoscale or {}).get("final_powered", 0) for r in results),
        }

    board_reports: Optional[List[Dict[str, object]]] = None
    if any(r.board_reports is not None for r in results):
        board_reports = [rep for r in results for rep in (r.board_reports or [])]

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
        board_reports=board_reports,
        latency_sketch=latency_sketch,
        wait_sketch=wait_sketch,
    )
