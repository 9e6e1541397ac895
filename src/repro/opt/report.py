"""The :class:`OptReport`: full provenance of one optimizer run.

Search results are only trustworthy when every candidate's fate is
accounted for, so the report is a *trace*, not just a winner: one record per
candidate (in enumeration order) with the stage it reached, its status, why
it was pruned or halved, the budget it consumed and every metric known about
it.  ``best`` is the constrained optimum (or ``None`` with a ``note`` line
when the whole space is infeasible — JSON null semantics, never an
exception), and Pareto fronts over the fully-evaluated candidates reuse
:func:`repro.analysis.report.pareto_indices`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis.report import Report, format_records, json_safe, pareto_indices

__all__ = ["CandidateRecord", "OptReport"]


#: Candidate statuses, in the order they are decided.
STATUSES: Tuple[str, ...] = (
    "pruned",      # ruled out at screening (structural / latency lower bound)
    "halved",      # killed on a successive-halving rung
    "skipped",     # never evaluated: the budget ran out first
    "infeasible",  # fully evaluated; a constraint fails at full fidelity
    "feasible",    # fully evaluated; all constraints hold
    "best",        # the feasible candidate with the optimal objective
)


@dataclass
class CandidateRecord:
    """One candidate's fate: stage reached, status, cost, metrics."""

    key: str
    values: Dict[str, object]
    stage: str              # "screen" | "halving" | "final"
    status: str
    reason: Optional[str]   # why pruned / halved / skipped (None otherwise)
    cost: float             # budget units consumed by this candidate
    objective: Optional[float]
    feasible: Optional[bool]
    metrics: Dict[str, Optional[float]]
    rungs: List[Dict[str, object]] = field(default_factory=list, init=False)

    def as_dict(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "values": dict(self.values),
            "stage": self.stage,
            "status": self.status,
            "reason": self.reason,
            "cost": self.cost,
            "objective": self.objective,
            "feasible": self.feasible,
            "metrics": dict(self.metrics),
            "rungs": [dict(r) for r in self.rungs],
        }


@dataclass
class OptReport(Report):
    """The full outcome of one :func:`repro.opt.optimize` run."""

    fidelity: str
    objective: Dict[str, object]
    constraints: List[Dict[str, object]]
    seed: int
    space: Dict[str, object]
    budget: float
    budget_spent: float
    evaluations: int
    candidates: List[CandidateRecord]
    best: Optional[Dict[str, object]]
    note: Optional[str] = None

    # -- views -------------------------------------------------------------------------

    def evaluated(self) -> List[CandidateRecord]:
        """Candidates with full-fidelity metrics (feasible/infeasible/best)."""

        return [c for c in self.candidates if c.status in ("feasible", "infeasible", "best")]

    def pareto_front(self, x: str, y: str) -> List[CandidateRecord]:
        """Undominated fully-evaluated candidates over metrics ``x``, ``y``
        (both minimized)."""

        records = [
            c for c in self.evaluated()
            if c.metrics.get(x) is not None and c.metrics.get(y) is not None
        ]
        if not records:
            return []
        idx = pareto_indices([c.metrics[x] for c in records], [c.metrics[y] for c in records])
        return [records[i] for i in idx]

    # -- serialisation -----------------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "fidelity": self.fidelity,
            "objective": dict(self.objective),
            "constraints": [dict(c) for c in self.constraints],
            "seed": self.seed,
            "space": dict(self.space),
            "budget": self.budget,
            "budget_spent": self.budget_spent,
            "evaluations": self.evaluations,
            "best": dict(self.best) if self.best is not None else None,
            "candidates": [c.as_dict() for c in self.candidates],
        }
        if self.note is not None:
            out["note"] = self.note
        return json_safe(out)

    def records(self) -> List[Dict[str, object]]:
        """The CSV view: one trace row per candidate (enumeration order)."""

        rows: List[Dict[str, object]] = []
        for c in self.candidates:
            row: Dict[str, object] = dict(c.values)
            row.update(
                {
                    "stage": c.stage,
                    "status": c.status,
                    "cost": round(c.cost, 6),
                    "objective": c.objective,
                    "feasible": c.feasible,
                    "reason": c.reason or "",
                }
            )
            rows.append(row)
        return rows

    def render(self) -> str:
        """Multi-section plain text (the ``optimize`` subcommand output)."""

        obj = self.objective
        direction = "max" if obj.get("maximize") else "min"
        lines: List[str] = [
            f"Constrained search: {direction}:{obj['metric']} over "
            f"{self.space['size']} candidates "
            f"({', '.join(self.space['axes'])}) at fidelity={self.fidelity}"
        ]
        if self.constraints:
            specs = ", ".join(
                f"{c['metric']}{c['op']}{c['bound']:g}" for c in self.constraints
            )
            lines.append(f"[constraints] {specs}")
        counts: Dict[str, int] = {}
        for c in self.candidates:
            counts[c.status] = counts.get(c.status, 0) + 1
        summary = ", ".join(f"{counts[s]} {s}" for s in STATUSES if s in counts)
        lines.append(
            f"[budget] spent {self.budget_spent:.3g} of {self.budget:.3g} "
            f"full-evaluation units ({self.evaluations} evaluation(s)); {summary}"
        )
        if self.best is not None:
            lines.append("[best]")
            for name, value in self.best["values"].items():
                lines.append(f"  {name:<18}: {value}")
            lines.append(f"  {'objective':<18}: {self.best['objective']:.6g}")
            shown = [
                (k, v) for k, v in self.best["metrics"].items() if v is not None
            ]
            lines.append("[best metrics]")
            for k, v in shown:
                lines.append(f"  {k:<18}: {v:.6g}")
        else:
            lines.append(f"[note] {self.note or 'no feasible candidate'}")
        evaluated = self.evaluated()
        if evaluated:
            rows = []
            sign = -1.0 if obj.get("maximize") else 1.0
            for c in sorted(
                evaluated,
                key=lambda c: (
                    c.objective is None,
                    sign * c.objective if c.objective is not None else 0.0,
                    c.key,
                ),
            ):
                row = dict(c.values)
                row["status"] = c.status
                row["objective"] = (
                    f"{c.objective:.6g}" if c.objective is not None else "n/a"
                )
                rows.append(row)
            lines.append("")
            lines.append(
                format_records(rows, title=f"Fully evaluated candidates ({len(rows)})")
            )
        return "\n".join(lines)
