"""Stage 2 and the :func:`optimize` driver: search, not sweep.

The two-stage engine over a :class:`~repro.opt.space.SearchSpace`:

1. **Screen** the full space on the vectorized batch engine
   (:mod:`repro.opt.screen`): structural constraint violations and
   latency-lower-bound violations are pruned for free.
2. **Refine** the survivors with short, seeded simulation runs —
   successive halving (rungs at 1/4, 1/2 and the full run length; the
   worse half dies at each rung) followed by a local neighborhood walk
   around the incumbent at full fidelity.

The evaluation budget is denominated in **full-evaluation units**: one unit
is one full-length run at the chosen fidelity (a ``simulate`` run, a
``simulate_fleet`` run, or a whole ``run_fmea`` study), and a rung at a
quarter of the run length costs 0.25.  An exhaustive search costs
``space.size`` units; the default budget is 20% of that (never less than
one full evaluation).  When the survivor
set is small enough to evaluate exhaustively within the halving share of
the budget, halving is skipped and every survivor runs at full length —
which is what makes ``fidelity="analytic"``-style exactness carry over to
small spaces at sim fidelity.

Determinism: every candidate owns an RNG stream derived as
``default_rng((seed, sha256(candidate.key)))`` — independent of enumeration
order and rung — and all tie-breaking (halving ranks, best selection)
falls back to the candidate key, so seeded runs are bit-identical.
Candidates run one at a time in this process: halved cohorts and a
one-candidate walk leave a process pool too little work to pay for itself.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .._checks import check_seed
from ..api.evaluator import Evaluator
from ..fleet.cluster import FleetScenario
from ..sim.scenario import SimScenario
from .constraints import Constraint, Objective, parse_constraint, parse_objective
from .report import CandidateRecord, OptReport
from .screen import (
    LATENCY_METRICS,
    METRICS_FOR_FIDELITY,
    STRUCTURAL_METRICS,
    prune_reason,
    screen_space,
)
from .space import Candidate, SearchSpace

__all__ = ["FIDELITY_NAMES", "RUNG_FRACTIONS", "candidate_seeds", "optimize"]


#: Evaluation fidelities, cheapest first.
FIDELITY_NAMES: Tuple[str, ...] = ("analytic", "sim", "fleet", "faults")

#: Injection-time samples per fault mode at ``fidelity="faults"``.
FAULT_SAMPLES = 3

#: Successive-halving rung lengths as fractions of the full run.
RUNG_FRACTIONS: Tuple[float, ...] = (0.25, 0.5, 1.0)

#: Share of the budget reserved for the neighborhood walk after halving.
_NEIGHBORHOOD_SHARE = 0.2


def candidate_seeds(seed: int, key: str) -> Tuple[int, int]:
    """The candidate's (sim seed, fault seed): a deterministic pure function
    of the run seed and the candidate key.

    The key is hashed into integer entropy and spawned through
    ``default_rng((seed, entropy))``, so streams are independent across
    candidates and stable across enumeration-order changes.
    """

    entropy = int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")
    rng = np.random.default_rng((int(seed) & 0xFFFFFFFFFFFFFFFF, entropy))
    pair = rng.integers(0, 2**31 - 1, size=2)
    return int(pair[0]), int(pair[1])


def _clean(value: object) -> Optional[float]:
    if value is None:
        return None
    out = float(value)
    return None if math.isnan(out) else out


def _serving_metrics(report, extra: Dict[str, Optional[float]]) -> Dict[str, Optional[float]]:
    """The metric names a sim and a fleet report share, ``extra`` before the
    latency percentiles."""

    lat = report.latency
    out: Dict[str, Optional[float]] = {
        "mean_ms": _clean(lat.mean * 1e3 if lat.count else None),
        "max_ms": _clean(lat.maximum * 1e3 if lat.count else None),
        "throughput_rps": _clean(report.throughput_rps),
        "energy_per_request_J": _clean(report.energy.get("energy_per_request_J")),
        "total_energy_J": _clean(report.energy.get("total_energy_J")),
        "watts": _clean(report.energy.get("average_power_W")),
        **extra,
    }
    for q, value in lat.percentiles.items():
        out[f"p{q}_ms"] = _clean(value * 1e3 if lat.count else None)
    return out


def _sim_metrics(report) -> Dict[str, Optional[float]]:
    """A :class:`~repro.sim.metrics.SimReport` as optimizer metric names."""

    out = _serving_metrics(report, {
        "util_ps": _clean(report.utilization.get("ps")),
        "util_pl": _clean(report.utilization.get("accelerator_mean")),
        "queue_mean": _clean(report.queue.get("mean_depth")),
    })
    if report.slo is not None:
        out["slo_violation_fraction"] = _clean(report.slo.get("violation_fraction"))
    return out


def _fleet_metrics(report) -> Dict[str, Optional[float]]:
    """A :class:`~repro.fleet.report.FleetReport` as optimizer metric names."""

    offered = report.requests.get("offered", 0)
    rejected = report.requests.get("rejected", 0) / offered if offered else None
    return _serving_metrics(report, {"rejected_fraction": _clean(rejected)})


def _evaluate_scenario(
    fidelity: str, evaluator: Evaluator, modes, scenario, fault_seed: int
) -> Dict[str, Optional[float]]:
    """Metrics of one run of ``scenario`` at ``fidelity``.

    ``simulate`` and friends are resolved at call time, so a profiler that
    wraps ``repro.sim.simulate`` sees every evaluation.
    """

    if fidelity == "fleet":
        from ..fleet import simulate_fleet

        return _fleet_metrics(simulate_fleet(scenario, evaluator=evaluator))
    from ..sim import simulate

    if fidelity == "faults":
        from ..faults import run_fmea

        study = run_fmea(
            scenario,
            modes,
            evaluator=evaluator,
            n_samples=FAULT_SAMPLES,
            fault_seed=fault_seed,
        )
        out = _sim_metrics(study.nominal)
        out["expected_slo_violation"] = _clean(study.expected_slo_violation)
        return out
    return _sim_metrics(simulate(scenario, evaluator=evaluator))


#: Analytic proxies used only to *order* survivors for rung-0 admission
#: (never to prune): which analytic metric approximates each sim metric.
_PROXY_OF: Dict[str, str] = {
    **{name: "latency_ms" for name in LATENCY_METRICS},
    "energy_per_request_J": "energy_per_request_J",
    "total_energy_J": "energy_per_request_J",
    "watts": "watts",
    "throughput_rps": "throughput_rps",
}


class _Search:
    """One optimize() run's mutable state (records, budget, evaluations)."""

    def __init__(
        self,
        space: SearchSpace,
        objective: Objective,
        constraints: Sequence[Constraint],
        fidelity: str,
        budget: float,
        seed: int,
        evaluator: Evaluator,
        modes,
    ) -> None:
        self.space = space
        self.objective = objective
        self.constraints = list(constraints)
        self.fidelity = fidelity
        self.budget = budget
        self.seed = seed
        self.evaluator = evaluator
        self.modes = modes
        self.spent = 0.0
        self.evaluations = 0
        self.candidates = space.candidates()
        self.index = {c.key: i for i, c in enumerate(self.candidates)}
        self.records: List[CandidateRecord] = []

    # -- budget ------------------------------------------------------------------------

    def affordable(self, cost: float) -> bool:
        return self.spent + cost <= self.budget + 1e-9

    # -- evaluation --------------------------------------------------------------------

    def evaluate(
        self, cohort: Sequence[Candidate], fraction: float
    ) -> List[Dict[str, Optional[float]]]:
        """Evaluate a cohort at one rung length, charging the budget."""

        build = self.space.fleet_scenario if self.fidelity == "fleet" else self.space.sim_scenario
        results = []
        for candidate in cohort:
            sim_seed, fault_seed = candidate_seeds(self.seed, candidate.key)
            scenario = build(candidate, seed=sim_seed, fraction=fraction)
            metrics = _evaluate_scenario(
                self.fidelity, self.evaluator, self.modes, scenario, fault_seed
            )
            results.append(metrics)
            record = self.records[self.index[candidate.key]]
            record.cost += fraction
            record.rungs.append(
                {
                    "fraction": fraction,
                    "objective": metrics.get(self.objective.metric),
                    "metrics": dict(metrics),
                }
            )
            self.spent += fraction
            self.evaluations += 1
        return results

    # -- ranking -----------------------------------------------------------------------

    def rank_key(self, feasible: bool, value: Optional[float], key: str):
        signed = self.objective.signed(value)
        return (not feasible, signed is None, signed if signed is not None else 0.0, key)

    def finalize(self, candidate: Candidate, metrics: Dict[str, Optional[float]], stage: str) -> None:
        """Install a full-length evaluation as the candidate's final word."""

        record = self.records[self.index[candidate.key]]
        merged = dict(record.metrics)
        merged.update(metrics)
        record.metrics = merged
        record.stage = stage
        value = merged.get(self.objective.metric)
        feasible = all(c.satisfied(merged.get(c.metric)) for c in self.constraints)
        record.objective = _clean(value)
        if feasible and record.objective is None:
            feasible = False
            record.reason = f"objective {self.objective.metric} undefined on this run"
        record.feasible = feasible
        record.status = "feasible" if feasible else "infeasible"


def _halving_cost(cohort: int) -> float:
    """Budget units consumed by a full halving schedule over ``cohort``."""

    cost = 0.0
    n = cohort
    for i, fraction in enumerate(RUNG_FRACTIONS):
        cost += fraction * n
        if i < len(RUNG_FRACTIONS) - 1:
            n = max(1, n // 2)
    return cost


def _resolve_objective(objective: Union[str, Objective]) -> Objective:
    return objective if isinstance(objective, Objective) else parse_objective(objective)


def _resolve_constraints(
    constraints: Sequence[Union[str, Constraint]]
) -> List[Constraint]:
    return [
        c if isinstance(c, Constraint) else parse_constraint(c) for c in constraints
    ]


def optimize(
    space: SearchSpace,
    objective: Union[str, Objective],
    constraints: Sequence[Union[str, Constraint]] = (),
    fidelity: str = "analytic",
    budget: Optional[float] = None,
    seed: int = 0,
    evaluator: Optional[Evaluator] = None,
) -> OptReport:
    """Find the constrained optimum of a search space — search, not sweep.

    Parameters
    ----------
    space:
        The :class:`~repro.opt.space.SearchSpace` to search.
    objective:
        Metric to optimize: ``"watts"``, ``"min:p99_ms"``, ``"max:throughput_rps"``
        or an :class:`~repro.opt.constraints.Objective`.
    constraints:
        Bounds every acceptable candidate must meet: ``"p99_ms<=5"`` strings
        or :class:`~repro.opt.constraints.Constraint` objects.
    fidelity:
        What one evaluation is: ``"analytic"`` (the batch engine row — the
        whole space is evaluated exactly and the result *is* the
        exhaustive constrained optimum), ``"sim"`` (one
        :func:`repro.sim.simulate` run), ``"fleet"`` (one
        :func:`repro.fleet.simulate_fleet` run of ``fixed["count"]``
        boards), or ``"faults"`` (one :func:`repro.faults.run_fmea` study
        over the whole registered fault domain, :data:`FAULT_SAMPLES`
        injection times per mode; the metric set gains
        ``expected_slo_violation``).
    budget:
        Evaluation budget in full-evaluation units (one unit = one
        full-length run at the chosen fidelity; a quarter-length halving
        rung costs 0.25).  Default: 20% of the exhaustive budget
        (``max(1.0, 0.2 * space.size)``).  Ignored at analytic fidelity, where the
        screen already evaluates everything.
    seed:
        Run seed.  Each candidate's runs draw from
        ``default_rng((seed, sha256(candidate.key)))`` — bit-identical
        reruns.
    """

    obj = _resolve_objective(objective)
    cons = _resolve_constraints(constraints)
    if fidelity not in FIDELITY_NAMES:
        raise ValueError(
            f"unknown fidelity '{fidelity}'; expected one of {FIDELITY_NAMES}"
        )
    known = METRICS_FOR_FIDELITY[fidelity]
    for metric, where in [(obj.metric, f"objective '{obj.spec}'")] + [
        (c.metric, f"constraint '{c.spec}'") for c in cons
    ]:
        if metric not in known:
            raise ValueError(
                f"unknown metric '{metric}' in {where}; metrics at "
                f"fidelity={fidelity}: {', '.join(known)}"
            )
    if fidelity != "analytic":
        runs = FleetScenario if fidelity == "fleet" else SimScenario
        for kind, name in space.unmodelled(runs):
            raise ValueError(
                f"{kind} '{name}' is not modelled at fidelity={fidelity} ({runs.__name__} "
                "has no such field); drop it or search at another fidelity"
            )
    referenced = {obj.metric} | {c.metric for c in cons}
    if fidelity == "sim" and "slo_violation_fraction" in referenced:
        if space.fixed.get("slo_s") is None:
            raise ValueError(
                "metric 'slo_violation_fraction' needs an SLO: pass "
                "fixed={'slo_s': ...} on the search space"
            )
    seed = check_seed("seed", seed)
    if budget is None:
        budget = max(1.0, 0.2 * space.size)
    budget = float(budget)
    if not 0 < budget < math.inf:
        raise ValueError(f"budget must be positive and finite (got {budget!r})")
    if evaluator is None:
        evaluator = Evaluator()

    modes = None
    if fidelity == "faults":
        from ..faults import default_fault_domain

        modes = list(default_fault_domain())

    search = _Search(space, obj, cons, fidelity, budget, seed, evaluator, modes)
    candidates = search.candidates
    table, analytic = screen_space(space, candidates)

    analytic_fidelity = fidelity == "analytic"
    for candidate, metrics in zip(candidates, analytic):
        base = (
            dict(metrics)
            if analytic_fidelity
            else {k: metrics.get(k) for k in STRUCTURAL_METRICS}
        )
        search.records.append(
            CandidateRecord(
                key=candidate.key,
                values=candidate.as_dict(),
                stage="screen",
                status="skipped",
                reason=None,
                cost=0.0,
                objective=None,
                feasible=None,
                metrics=base,
            )
        )

    if analytic_fidelity:
        # The screen *is* the evaluation: every candidate's metrics are exact,
        # so the result is by construction the exhaustive constrained optimum.
        for candidate, metrics, record in zip(candidates, analytic, search.records):
            record.objective = _clean(metrics.get(obj.metric))
            feasible = all(c.satisfied(metrics.get(c.metric)) for c in cons)
            if feasible and record.objective is None:
                feasible = False
                record.reason = f"objective {obj.metric} undefined"
            record.feasible = feasible
            record.status = "feasible" if feasible else "infeasible"
    else:
        survivors: List[Candidate] = []
        for candidate, metrics, record in zip(candidates, analytic, search.records):
            reason = prune_reason(candidate, metrics, cons, fidelity)
            if reason is not None:
                record.status = "pruned"
                record.reason = reason
                record.feasible = False
            else:
                survivors.append(candidate)

        halving_budget = budget * (1.0 - _NEIGHBORHOOD_SHARE)
        if survivors and len(survivors) <= halving_budget:
            # Small enough to evaluate exhaustively at full length — no
            # halving noise, the sim-fidelity answer is the sim-exhaustive
            # constrained optimum over the unpruned set.
            for candidate, metrics in zip(
                survivors, search.evaluate(survivors, 1.0)
            ):
                search.finalize(candidate, metrics, "final")
        elif survivors:
            # Rung-0 admission: order survivors by the analytic proxy of the
            # objective (exact for structural objectives), then fit the
            # largest cohort whose halving schedule the budget affords.
            proxy_name = (
                obj.metric if obj.metric in STRUCTURAL_METRICS else _PROXY_OF.get(obj.metric)
            )

            def proxy_rank(candidate: Candidate):
                metrics = analytic[search.index[candidate.key]]
                value = metrics.get(proxy_name) if proxy_name else None
                signed = obj.signed(value)
                return (signed is None, signed if signed is not None else 0.0, candidate.key)

            ordered = sorted(survivors, key=proxy_rank)
            cohort_size = 0
            for c in range(1, len(ordered) + 1):
                if _halving_cost(c) <= halving_budget + 1e-9:
                    cohort_size = c
            cohort = ordered[:cohort_size]
            for candidate in ordered[cohort_size:]:
                record = search.records[search.index[candidate.key]]
                record.reason = (
                    f"not admitted to halving (cohort {cohort_size} of "
                    f"{len(ordered)} survivors fits the budget)"
                )
            if not cohort:
                # Budget below one full halving schedule: full-length runs
                # for as many of the best-ranked survivors as fit.
                cohort = ordered[: max(1, int(halving_budget))]
                for candidate, metrics in zip(cohort, search.evaluate(cohort, 1.0)):
                    search.finalize(candidate, metrics, "final")
            else:
                for r, fraction in enumerate(RUNG_FRACTIONS):
                    results = search.evaluate(cohort, fraction)
                    if fraction >= 1.0:
                        for candidate, metrics in zip(cohort, results):
                            search.finalize(candidate, metrics, "final")
                        break
                    ranked = sorted(
                        zip(cohort, results),
                        key=lambda pair: search.rank_key(
                            all(
                                c.satisfied(pair[1].get(c.metric)) for c in cons
                            ),
                            pair[1].get(obj.metric),
                            pair[0].key,
                        ),
                    )
                    keep = max(1, len(ranked) // 2)
                    for rank, (candidate, _) in enumerate(ranked[keep:], start=keep):
                        record = search.records[search.index[candidate.key]]
                        record.stage = "halving"
                        record.status = "halved"
                        record.reason = (
                            f"ranked {rank + 1}/{len(ranked)} at rung {r} "
                            f"({fraction:g} of full length)"
                        )
                    cohort = [candidate for candidate, _ in ranked[:keep]]

        # Local neighborhood walk around the incumbent at full fidelity.
        incumbent = _best_record(search)
        while incumbent is not None and search.affordable(1.0):
            improved = False
            for neighbor in space.neighbors(search.candidates[search.index[incumbent.key]]):
                record = search.records[search.index[neighbor.key]]
                if record.status in ("feasible", "infeasible", "pruned"):
                    continue
                if not search.affordable(1.0):
                    break
                metrics = search.evaluate([neighbor], 1.0)[0]
                search.finalize(neighbor, metrics, "neighborhood")
                if record.feasible and search.rank_key(
                    True, record.objective, neighbor.key
                ) < search.rank_key(True, incumbent.objective, incumbent.key):
                    incumbent = record
                    improved = True
                    break
            if not improved:
                break

    best_record = _best_record(search)
    best = None
    note = None
    if best_record is not None:
        best_record.status = "best"
        best = {
            "key": best_record.key,
            "values": dict(best_record.values),
            "objective": best_record.objective,
            "metrics": dict(best_record.metrics),
        }
    else:
        pruned = len([r for r in search.records if r.status == "pruned"])
        infeasible = len([r for r in search.records if r.status == "infeasible"])
        note = (
            f"no candidate satisfies the constraints at fidelity={fidelity} "
            f"({pruned} pruned at screening, {infeasible} infeasible when evaluated)"
        )

    return OptReport(
        fidelity=fidelity,
        objective=obj.as_dict(),
        constraints=[c.as_dict() for c in cons],
        seed=seed,
        space=space.as_dict(),
        budget=budget,
        budget_spent=search.spent,
        evaluations=search.evaluations,
        candidates=search.records,
        best=best,
        note=note,
        screen=table,
    )


def _best_record(search: _Search) -> Optional[CandidateRecord]:
    """The feasible record with the best objective so far (or None)."""

    feasible = [r for r in search.records if r.feasible and r.objective is not None]
    return min(feasible, key=lambda r: search.rank_key(True, r.objective, r.key), default=None)
