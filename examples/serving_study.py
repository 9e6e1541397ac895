#!/usr/bin/env python3
"""Serving study: where is the knee of the latency curve?

The analytic models say one rODENet-3-20 prediction takes ~0.29 s on the
PYNQ-Z2 with the layer3_2 ODEBlock offloaded.  A deployment engineer's
question is different: *at what request rate does the board stop keeping
up, and does a second PL replica (or a second PS core) move that knee?*

This example answers it with the discrete-event simulator (``repro.sim``):
for each (replicas, PS cores) system variant it sweeps the Poisson arrival
rate, measures the p95 latency, and reports the **knee** — the highest
offered rate whose p95 stays within 2x the no-load service time.  The same
sweep prints utilisation so you can see *which* resource saturates first
(the PS core, not the PL, for shallow networks — exactly the kind of
system-level fact the closed-form model cannot express).

Run:  PYTHONPATH=src python examples/serving_study.py [--quick]
"""

from __future__ import annotations

import argparse

from repro.analysis import format_records
from repro.api import Evaluator
from repro.sim import SimScenario, simulate, size_replicas

EVALUATOR = Evaluator()

#: Knee criterion: p95 latency within this factor of the no-load service time.
KNEE_FACTOR = 2.0


def study(model: str, depth: int, rates, systems, n_requests: int) -> None:
    base = SimScenario(
        model=model,
        depth=depth,
        arrival="poisson",
        n_requests=n_requests,
        policy="batched",
        batch_size=4,
        seed=0,
    )
    service = simulate(
        base.replace(arrival="deterministic", n_requests=1), evaluator=EVALUATOR
    ).latency.mean
    budget, _ = size_replicas(base.design_point, 0, EVALUATOR)
    print(f"=== {model}-{depth}: no-load latency {service * 1e3:.1f} ms, "
          f"device budget {budget} replica(s) ===")

    rows = []
    knees = []
    for replicas, ps_cores in systems:
        knee = None
        for rate in rates:
            report = simulate(
                base.replace(replicas=replicas, ps_cores=ps_cores, arrival_rate_hz=rate),
                evaluator=EVALUATOR,
            )
            p95 = report.latency.percentiles[95]
            rows.append(
                {
                    "replicas": replicas,
                    "ps_cores": ps_cores,
                    "offered_rps": rate,
                    "delivered_rps": round(report.throughput_rps, 2),
                    "p95_ms": round(p95 * 1e3, 1),
                    "ps_util_%": round(100 * report.utilization["ps"], 1),
                    "pl_util_%": round(100 * report.utilization["accelerator_mean"], 1),
                    "mean_batch": round(report.batch_sizes.get("mean", 1.0), 2),
                }
            )
            if p95 <= KNEE_FACTOR * service:
                knee = rate
        knees.append(
            {
                "replicas": replicas,
                "ps_cores": ps_cores,
                "knee_rps": knee if knee is not None else "< min rate",
            }
        )
    print(format_records(rows))
    print(format_records(knees, title=f"Knee (highest rate with p95 <= {KNEE_FACTOR}x no-load)"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller runs (CI smoke)")
    args = parser.parse_args()

    if args.quick:
        rates = (1.0, 4.0, 8.0)
        systems = ((1, 1), (1, 2))
        n_requests = 40
    else:
        rates = (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0, 12.0)
        systems = ((1, 1), (1, 2), (2, 2))
        n_requests = 250

    study("rODENet-3", 20, rates, systems, n_requests)
    print()
    # layer1's small footprint actually fits multiple replicas on the device.
    study("rODENet-1", 20, rates, systems, n_requests)


if __name__ == "__main__":
    main()
