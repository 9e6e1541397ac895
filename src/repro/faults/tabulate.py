"""FMEA tabulation: expected losses per fault mode, vs the nominal run.

The quantitative half of a Failure Modes and Effects Analysis, in the
fmdtools style: for each fault mode, run the scenario with the fault
injected at every sampled time (:mod:`repro.faults.sample`), take the
quadrature-weighted average of the metric deltas against the nominal run —
the time-averaged effect of *one* occurrence — and scale by the mode's
expected number of occurrences over the run (``rate_per_hour × horizon``).
The headline column is the expected SLO-violation fraction added by the
mode; latency and energy deltas ride along.

The SLO itself lives on the :class:`~repro.sim.scenario.SimScenario`
(``slo_s``); when unset, :func:`run_fmea` defaults it to
``DEFAULT_SLO_FACTOR ×`` the no-load service time — the knee convention of
``examples/serving_study.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.report import csv_text, format_records
from ..api.evaluator import Evaluator
from ..api.scenario import Scenario
from ..sim.metrics import SimReport
from ..sim.runner import as_sim_scenario, simulate
from ..sim.scenario import SimScenario
from ..sim.workload import build_service_plan
from .modes import FaultMode
from .sample import injection_times

__all__ = ["DEFAULT_SLO_FACTOR", "FmeaStudy", "run_fmea"]

#: Default SLO when the scenario sets none: this multiple of the no-load
#: service time (the latency-knee convention used across the examples).
DEFAULT_SLO_FACTOR = 2.0


@dataclass(frozen=True)
class FmeaStudy:
    """Outcome of one FMEA: nominal baseline + per-mode expected losses."""

    scenario: Dict[str, object]
    slo_s: float
    nominal: SimReport
    #: One row per fault mode (see :func:`run_fmea` for the columns).
    rows: List[Dict[str, object]]
    #: One record per executed fault scenario (mode, time, weight, metrics).
    samples: List[Dict[str, object]]

    @property
    def expected_slo_violation(self) -> float:
        """Total expected SLO-violation fraction added across all modes."""

        return sum(row["expected_slo_violation"] for row in self.rows)

    def as_dict(self) -> Dict[str, object]:
        return {
            "scenario": dict(self.scenario),
            "slo_s": self.slo_s,
            "nominal": self.nominal.as_dict(),
            "fmea": [dict(row) for row in self.rows],
            "samples": [dict(s) for s in self.samples],
            "expected_slo_violation": self.expected_slo_violation,
        }

    def to_csv(self) -> str:
        """Header + one row per fault mode (the ``--format csv`` output)."""

        if not self.rows:
            return ""
        return csv_text([self.rows[0].keys(), *(row.values() for row in self.rows)])

    def render(self) -> str:
        """Plain-text FMEA table plus the nominal baseline line."""

        s = self.scenario
        nom = self.nominal
        frac = nom.slo["violation_fraction"] if nom.slo else 0.0
        lines = [
            f"FMEA: {s['model']}-{s['depth']} on {s['board']} "
            f"({s['replicas']} replica(s), policy={s['policy']}, "
            f"slo={self.slo_s * 1e3:.4g} ms)",
            f"nominal: p95 {nom.latency.percentiles[95] * 1e3:.4g} ms, "
            f"violation fraction {frac:.4g}, "
            f"energy {nom.energy['total_energy_J']:.4g} J "
            f"over {nom.horizon_s:.4g} s",
            "",
            format_records(
                [
                    {
                        "mode": r["mode"],
                        "rate/h": r["rate_per_hour"],
                        "occurrences": r["expected_occurrences"],
                        "d_violation": r["d_violation_fraction"],
                        "E[violation]": r["expected_slo_violation"],
                        "d_p95_ms": r["d_p95_ms"],
                        "d_energy_J": r["d_energy_J"],
                        "corrupted": r["corrupted_mean"],
                    }
                    for r in self.rows
                ]
            ),
            "",
            f"total expected SLO-violation fraction: {self.expected_slo_violation:.4g}",
        ]
        return "\n".join(lines)


def run_fmea(
    scenario: Scenario,
    modes: Sequence[FaultMode],
    evaluator: Optional[Evaluator] = None,
    n_samples: int = 3,
    method: str = "even",
    fault_seed: int = 0,
    mix: Optional[Sequence[Tuple[Scenario, float]]] = None,
) -> FmeaStudy:
    """Run the full FMEA for ``scenario`` over ``modes``.

    Per mode: ``n_samples`` single-fault runs at sampled injection times,
    weighted into time-averaged deltas vs the nominal run, scaled by the
    mode's expected occurrences over the horizon.  Row columns:

    ``mode``, ``rate_per_hour``, ``samples``, ``expected_occurrences``,
    ``violation_fraction`` (weighted, under the fault),
    ``d_violation_fraction``, ``expected_slo_violation``
    (= occurrences × delta, the FMEA headline), ``d_p95_ms``,
    ``d_mean_ms``, ``d_energy_J``, ``corrupted_mean``.

    Zero-rate modes get a row of zeros (listed, never fired).  The nominal
    report inside the study is the *unmodified* ``simulate()`` output — with
    only zero-rate modes, the study degenerates to exactly the nominal run.
    """

    ev = evaluator if evaluator is not None else Evaluator()
    sim_scenario = as_sim_scenario(scenario)
    if sim_scenario.slo_s is None:
        service = build_service_plan(sim_scenario.design_point, evaluator=ev).total_seconds
        sim_scenario = sim_scenario.replace(slo_s=DEFAULT_SLO_FACTOR * service)

    nominal = simulate(sim_scenario, evaluator=ev, mix=mix)
    horizon = nominal.horizon_s
    nom_frac = nominal.slo["violation_fraction"]
    nom_p95 = nominal.latency.percentiles[95]
    nom_mean = nominal.latency.mean
    nom_energy = nominal.energy["total_energy_J"]

    rows: List[Dict[str, object]] = []
    sample_records: List[Dict[str, object]] = []
    for mode in modes:
        occurrences = mode.rate_per_hour * horizon / 3600.0
        if mode.rate_per_hour <= 0:
            rows.append(
                {
                    "mode": mode.kind,
                    "rate_per_hour": mode.rate_per_hour,
                    "samples": 0,
                    "expected_occurrences": 0.0,
                    "violation_fraction": nom_frac,
                    "d_violation_fraction": 0.0,
                    "expected_slo_violation": 0.0,
                    "d_p95_ms": 0.0,
                    "d_mean_ms": 0.0,
                    "d_energy_J": 0.0,
                    "corrupted_mean": 0.0,
                }
            )
            continue
        times, weights = injection_times(horizon, n_samples, method)
        frac = p95 = mean = energy = corrupted = 0.0
        for t_inject, weight in zip(times, weights):
            report = simulate(
                sim_scenario,
                evaluator=ev,
                mix=mix,
                faults=[(mode, t_inject)],
                fault_seed=fault_seed,
            )
            frac += weight * report.slo["violation_fraction"]
            p95 += weight * report.latency.percentiles[95]
            mean += weight * report.latency.mean
            energy += weight * report.energy["total_energy_J"]
            corrupted += weight * report.faults["corrupted_requests"]
            sample_records.append(
                {
                    "mode": mode.kind,
                    "t_inject": t_inject,
                    "weight": weight,
                    "violation_fraction": report.slo["violation_fraction"],
                    "p95_s": report.latency.percentiles[95],
                    "total_energy_J": report.energy["total_energy_J"],
                    "redispatched": report.faults["redispatched"],
                    "ps_fallback_served": report.faults["ps_fallback_served"],
                    "corrupted_requests": report.faults["corrupted_requests"],
                }
            )
        rows.append(
            {
                "mode": mode.kind,
                "rate_per_hour": mode.rate_per_hour,
                "samples": n_samples,
                "expected_occurrences": occurrences,
                "violation_fraction": frac,
                "d_violation_fraction": frac - nom_frac,
                "expected_slo_violation": occurrences * max(0.0, frac - nom_frac),
                "d_p95_ms": (p95 - nom_p95) * 1e3,
                "d_mean_ms": (mean - nom_mean) * 1e3,
                "d_energy_J": energy - nom_energy,
                "corrupted_mean": corrupted,
            }
        )
    scenario_dict = dict(nominal.scenario)
    return FmeaStudy(
        scenario=scenario_dict,
        slo_s=float(sim_scenario.slo_s),
        nominal=nominal,
        rows=rows,
        samples=sample_records,
    )
