#!/usr/bin/env python
"""Benchmark: discrete-event engine throughput and serving saturation curves.

Four measurements:

1. **Engine events/sec** — a microbenchmark of the raw kernel (timeout chains
   through many concurrent processes, the dominant event pattern in serving
   runs).  The engine must sustain at least 100k events/sec (asserted unless
   ``--quick``), which keeps even million-event serving studies interactive.

2. **Serving-mix events/sec** — whole :func:`repro.sim.simulate` runs of the
   perfbench ``serve`` op1 mix: rODENet-3-20 on a PYNQ-Z2, 2 replicas,
   batched (4), 2 PS cores, 300 Poisson requests at 2, 8 and 12 req/s.
   Every event here passes through resources, monitors, the dispatcher and
   ``all_of`` joins, not just timeouts.  Prints ns/event and asserts at
   least 250k events/sec (half that under ``--quick``), best of five
   passes so a noisy host does not fail it.

3. **Saturation throughput** — Poisson serving runs of rODENet-3-20 at
   increasing arrival rates for 1 and 2 PL replicas, printing delivered
   throughput and p95 latency per point.  The knee — where p95 departs from
   the no-load service time — is the number the analytic model cannot
   produce; the curve printed here is the quantitative answer to "how much
   traffic can one board take?".

4. **Fleet throughput** (``--fleet``) — a day-length (86 400 s) Poisson trace
   of more than a million requests over a mixed 8x PYNQ-Z2 + 4x ZCU104
   fleet through :func:`repro.fleet.simulate_fleet`.  Asserts the fast
   kernel's events/sec floor (the tentpole claim: million-request day
   traces in seconds of wall clock) and that the streaming quantile
   sketch's p50/p90/p95/p99 land within 1 % of the exact (stored-sample)
   percentiles on the same run.

Usage::

    PYTHONPATH=src python benchmarks/bench_sim_throughput.py            # engine+saturation
    PYTHONPATH=src python benchmarks/bench_sim_throughput.py --fleet    # fleet bench
    PYTHONPATH=src python benchmarks/bench_sim_throughput.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.api import Evaluator
from repro.sim import SimScenario, Simulator, simulate

MIN_EVENTS_PER_SEC = 100_000.0

#: The serving mix's floor (full run; --quick uses half).  A 2-CPU host
#: sustains about 320-360k events/sec on it.
MIN_SERVING_EVENTS_PER_SEC = 250_000.0

#: The fleet kernel's asserted floor (full run; --quick uses half).  The
#: reference container sustains ~350k events/sec on the day-length trace.
MIN_FLEET_EVENTS_PER_SEC = 100_000.0

#: Maximum relative error of the streaming sketch vs exact percentiles.
MAX_SKETCH_RELATIVE_ERROR = 0.01


def bench_engine(n_processes: int, hops: int) -> float:
    """Events/sec of the raw kernel: ``n_processes`` timeout chains."""

    sim = Simulator()

    def chain(offset: float):
        for k in range(hops):
            yield sim.timeout(0.001 + offset)

    for i in range(n_processes):
        sim.process(chain(i * 1e-6))
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return sim.events_processed / elapsed


def bench_serving_mix() -> float:
    """Events/sec of ``simulate`` on the serve op1 mix (best of five passes)."""

    evaluator = Evaluator()
    scenarios = [
        SimScenario(
            model="rODENet-3",
            depth=20,
            board="PYNQ-Z2",
            replicas=2,
            policy="batched",
            batch_size=4,
            ps_cores=2,
            arrival_rate_hz=rate,
            n_requests=300,
            seed=1,
        )
        for rate in (2.0, 8.0, 12.0)
    ]
    for scenario in scenarios:  # warm the evaluator's plans
        simulate(scenario, evaluator=evaluator)
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        events = sum(simulate(s, evaluator=evaluator).events_processed for s in scenarios)
        best = min(best, time.perf_counter() - start)
    print(
        f"serving mix: {events:,} events -> {1e9 * best / events:,.0f} ns/event, "
        f"{events / best:,.0f} events/sec"
    )
    return events / best


def bench_saturation(rates, replicas_list, n_requests: int) -> None:
    evaluator = Evaluator()
    base = SimScenario(
        model="rODENet-3",
        depth=20,
        arrival="poisson",
        n_requests=n_requests,
        policy="batched",
        batch_size=4,
        ps_cores=2,
        seed=0,
    )
    service = simulate(
        base.replace(arrival="deterministic", n_requests=1), evaluator=evaluator
    ).latency.mean
    print(f"\nsaturation curves (no-load service time {service * 1e3:.1f} ms):")
    print(f"{'replicas':>8} {'offered rps':>12} {'delivered rps':>14} "
          f"{'p95 [ms]':>10} {'PS util':>8} {'PL util':>8}")
    for replicas in replicas_list:
        for rate in rates:
            report = simulate(
                base.replace(replicas=replicas, arrival_rate_hz=rate),
                evaluator=evaluator,
            )
            print(
                f"{replicas:>8} {rate:>12.1f} {report.throughput_rps:>14.2f} "
                f"{report.latency.percentiles[95] * 1e3:>10.1f} "
                f"{report.utilization['ps']:>8.2f} "
                f"{report.utilization['accelerator_mean']:>8.2f}"
            )


def bench_fleet(quick: bool) -> int:
    """Day-length fleet run: events/sec floor + sketch-vs-exact differential."""

    from repro.fleet import BoardGroup, FleetScenario, TrafficClass, simulate_fleet

    duration_s = 7_200.0 if quick else 86_400.0
    floor = MIN_FLEET_EVENTS_PER_SEC / 2 if quick else MIN_FLEET_EVENTS_PER_SEC
    scenario = FleetScenario(
        boards=(BoardGroup("PYNQ-Z2", 8), BoardGroup("ZCU104", 4)),
        classes=(
            TrafficClass("interactive", weight=0.9),
            TrafficClass("nightly", weight=0.1, kind="batch"),
        ),
        arrival_rate_hz=12.0,
        duration_s=duration_s,
        cells=4,
        seed=0,
    )

    start = time.perf_counter()
    report = simulate_fleet(scenario)
    elapsed = time.perf_counter() - start
    eps = report.events_processed / elapsed
    offered = report.requests["offered"]
    print(
        f"fleet: {offered:,} requests over {duration_s / 3600.0:.0f} h on "
        f"8x PYNQ-Z2 + 4x ZCU104 -> {elapsed:.2f} s wall, {eps:,.0f} events/sec"
    )
    print(
        f"       completed {report.requests['completed']:,}, "
        f"rejected {report.requests['rejected']:,}, "
        f"p99 {report.latency.percentiles[99] * 1e3:.1f} ms, "
        f"sketch bins {report.latency_sketch.bins_used}"
    )
    ok = True
    if not quick and offered < 1_000_000:
        print(f"FAIL: expected >= 1M offered requests (got {offered:,})", file=sys.stderr)
        ok = False
    if eps < floor:
        print(f"FAIL: fleet kernel below {floor:,.0f} events/sec", file=sys.stderr)
        ok = False

    # Differential: the same scenario with exact (stored-sample) percentiles.
    exact = simulate_fleet(scenario.replace(exact=True))
    print("sketch vs exact percentiles:")
    for q in (50, 90, 95, 99):
        approx = report.latency.percentiles[q]
        truth = exact.latency.percentiles[q]
        rel = abs(approx - truth) / truth if truth else 0.0
        print(f"  p{q:<3}: sketch {approx:.6g} s, exact {truth:.6g} s, rel err {rel:.4%}")
        if rel > MAX_SKETCH_RELATIVE_ERROR:
            print(
                f"FAIL: sketch p{q} off by {rel:.4%} "
                f"(> {MAX_SKETCH_RELATIVE_ERROR:.0%})",
                file=sys.stderr,
            )
            ok = False
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke (small runs, no floor)")
    parser.add_argument(
        "--fleet", action="store_true",
        help="run the fleet benchmark (events/sec floor + sketch differential)",
    )
    args = parser.parse_args(argv)

    if args.fleet:
        code = bench_fleet(args.quick)
        print("\nok" if code == 0 else "\nFAILED")
        return code

    if args.quick:
        n_processes, hops = 200, 20
        rates, replicas_list, n_requests = (2.0, 8.0), (1,), 30
    else:
        n_processes, hops = 2_000, 100
        rates, replicas_list, n_requests = (1.0, 2.0, 4.0, 6.0, 8.0, 12.0), (1, 2), 200

    eps = bench_engine(n_processes, hops)
    print(f"engine: {n_processes} processes x {hops} hops -> {eps:,.0f} events/sec")
    if not args.quick and eps < MIN_EVENTS_PER_SEC:
        print(f"FAIL: engine below {MIN_EVENTS_PER_SEC:,.0f} events/sec", file=sys.stderr)
        return 1

    floor = MIN_SERVING_EVENTS_PER_SEC / 2 if args.quick else MIN_SERVING_EVENTS_PER_SEC
    if bench_serving_mix() < floor:
        print(f"FAIL: serving mix below {floor:,.0f} events/sec", file=sys.stderr)
        return 1

    bench_saturation(rates, replicas_list, n_requests)
    print("\nok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
