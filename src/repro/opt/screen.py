"""Stage 1: screen the full space on the vectorized batch engine.

One :func:`repro.api.batch.sweep_batch` call evaluates every candidate's
analytic design point (~70x faster than looping), and this module turns
the columnar table into per-candidate metric dictionaries plus *sound*
pruning decisions:

* **Structural metrics** (fabric usage, fits/timing flags, parameter sizes,
  accuracy, board price) are exact at screening for every fidelity — a
  structural constraint violation is a hard prune.
* **Latency metrics**: the analytic no-load latency is a *lower bound* on
  any simulated sojourn time under non-batched dispatch (contention only
  adds).  An upper-bound latency constraint whose bound is already beaten by
  the no-load latency (with a small safety margin) can never become
  feasible, so the candidate is pruned.  Batched dispatch overlaps DMA and
  may beat the no-load figure, so those candidates are never latency-pruned.
* Everything else (simulated energy, throughput under contention, SLO
  fractions) is only decidable at the chosen fidelity and passes through.

Pruning must be conservative: a pruned candidate is asserted infeasible in
the exhaustive reference runs of ``tests/opt`` and ``bench_optimize.py``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..platform import get_board
from .constraints import Constraint
from .space import Candidate, SearchSpace

if TYPE_CHECKING:
    from ..api.batch import BatchResult

__all__ = [
    "STRUCTURAL_METRICS",
    "LATENCY_METRICS",
    "METRICS_FOR_FIDELITY",
    "screen_space",
    "analytic_metrics",
    "prune_reason",
]


#: Metrics that are exact at screening time regardless of fidelity: they are
#: functions of the design point alone, never of the traffic.
STRUCTURAL_METRICS: Tuple[str, ...] = (
    "bram", "dsp", "lut", "ff",
    "bram_pct", "dsp_pct", "lut_pct", "ff_pct",
    "fits_device", "meets_timing",
    "param_count", "param_bytes", "accuracy_pct",
    "board_price_usd",
)

#: The latency family: the analytic no-load ``latency_ms`` lower-bounds all
#: of them under non-batched dispatch (sojourn = wait + service >= service).
LATENCY_METRICS: Tuple[str, ...] = (
    "latency_ms", "mean_ms", "p50_ms", "p90_ms", "p95_ms", "p99_ms", "max_ms",
)

#: Analytic-only (single-inference, no traffic) metrics beyond the
#: structural set.
_ANALYTIC_ONLY: Tuple[str, ...] = (
    "latency_ms", "throughput_rps", "energy_per_request_J", "watts",
    "overall_speedup", "speedup_vs_resnet", "energy_ratio",
)

_SIM_ONLY: Tuple[str, ...] = (
    "mean_ms", "p50_ms", "p90_ms", "p95_ms", "p99_ms", "max_ms",
    "throughput_rps", "energy_per_request_J", "total_energy_J", "watts",
    "util_ps", "util_pl", "queue_mean", "slo_violation_fraction",
)

_FLEET_ONLY: Tuple[str, ...] = (
    "mean_ms", "p50_ms", "p90_ms", "p95_ms", "p99_ms", "max_ms",
    "throughput_rps", "energy_per_request_J", "total_energy_J", "watts",
    "rejected_fraction",
)

#: Metric names each evaluation fidelity can produce (structural metrics are
#: always available — they ride along from the screen).
METRICS_FOR_FIDELITY: Dict[str, Tuple[str, ...]] = {
    "analytic": STRUCTURAL_METRICS + _ANALYTIC_ONLY,
    "sim": STRUCTURAL_METRICS + _SIM_ONLY,
    "fleet": STRUCTURAL_METRICS + _FLEET_ONLY,
    "faults": STRUCTURAL_METRICS + _SIM_ONLY + ("expected_slo_violation",),
}

#: Safety margin on the latency lower-bound prune: the differential tests
#: pin contention-free sim within 1% of the analytic figure, so a no-load
#: latency 2% above an upper bound can never simulate under it.
LATENCY_PRUNE_MARGIN = 0.02


def _as_float(value: object) -> Optional[float]:
    if value is None:
        return None
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    out = float(value)
    return None if math.isnan(out) else out


def analytic_metrics(table: BatchResult, i: int) -> Dict[str, Optional[float]]:
    """Row ``i`` of the screening table as the optimizer's metric names."""

    rec = table.record(i)
    total_s = float(rec["total_w_pl_s"])
    out: Dict[str, Optional[float]] = {
        name: _as_float(rec[name])
        for name in STRUCTURAL_METRICS
        if name != "board_price_usd"
    }
    out["board_price_usd"] = _as_float(get_board(str(rec["board"])).price_usd)
    out["latency_ms"] = total_s * 1e3
    out["throughput_rps"] = 1.0 / total_s if total_s > 0 else None
    out["energy_per_request_J"] = _as_float(rec["energy_with_pl_J"])
    out["watts"] = (
        float(rec["energy_with_pl_J"]) / total_s if total_s > 0 else None
    )
    out["overall_speedup"] = _as_float(rec["overall_speedup"])
    out["speedup_vs_resnet"] = _as_float(rec["speedup_vs_resnet"])
    out["energy_ratio"] = _as_float(rec["energy_ratio"])
    return out


def screen_space(
    space: SearchSpace,
    candidates: Sequence[Candidate],
) -> Tuple[BatchResult, List[Dict[str, Optional[float]]]]:
    """Batch-evaluate every candidate's design point; one metric dict each.

    Candidates that share a design point (serving axes differ) share one
    batch row — the table holds the *unique* design points, and the second
    return value maps each candidate to its analytic metrics.  The batch
    engine (and NumPy) load here, after :func:`~repro.opt.refine.optimize`
    has checked the request.
    """

    from ..api.batch import sweep_batch

    scenarios = [space.scenario(c) for c in candidates]
    unique_index: Dict[object, int] = {}
    unique_scenarios = []
    rows: List[int] = []
    for s in scenarios:
        idx = unique_index.get(s)
        if idx is None:
            idx = len(unique_scenarios)
            unique_index[s] = idx
            unique_scenarios.append(s)
        rows.append(idx)
    table = sweep_batch(unique_scenarios)
    per_row = [analytic_metrics(table, i) for i in range(len(table))]
    return table, [per_row[i] for i in rows]


def prune_reason(
    candidate: Candidate,
    analytic: Dict[str, Optional[float]],
    constraints: Sequence[Constraint],
) -> Optional[str]:
    """Why the screen can already rule a candidate out (``None`` = keep).

    Sound for every fidelity: structural constraints are exact here, and
    latency upper bounds use the no-load lower bound with
    :data:`LATENCY_PRUNE_MARGIN` headroom (skipped for batched dispatch,
    which may overlap DMA below the no-load figure).
    """

    for constraint in constraints:
        metric = constraint.metric
        if metric in STRUCTURAL_METRICS:
            if not constraint.satisfied(analytic.get(metric)):
                return f"structural constraint {constraint.spec} (value {analytic.get(metric)})"
        elif metric in LATENCY_METRICS and constraint.op in ("<=", "<"):
            if candidate.get("policy", "fifo") == "batched":
                continue
            no_load = analytic.get("latency_ms")
            if no_load is not None and no_load > constraint.bound * (1.0 + LATENCY_PRUNE_MARGIN):
                return (
                    f"no-load latency {no_load:.4g} ms already exceeds "
                    f"{constraint.spec} (lower bound on {metric})"
                )
    return None
