#!/usr/bin/env python
"""Benchmark: discrete-event engine throughput and serving saturation curves.

Four measurements:

1. **Engine events/sec** — a microbenchmark of the raw kernel (sleep chains
   through many concurrent processes, the dominant entry pattern in serving
   runs).  The engine must sustain at least 100k events/sec (asserted unless
   ``--quick``), which keeps even million-event serving studies interactive.

2. **Serving-mix events/sec** — whole :func:`repro.sim.simulate` runs of the
   perfbench ``serve`` op1 mix: rODENet-3-20 on a PYNQ-Z2, 2 replicas,
   batched (4), 2 PS cores, 300 Poisson requests at 2, 8 and 12 req/s.
   Every event here moves resources, monitors or the dispatcher, not just
   a sleep chain (a batched pipeline step also joins its DMA process).
   Prints ns/event and requests/sec, and asserts at least 250k events/sec
   and 8,900 requests/sec (half of each under ``--quick``), best of five
   passes so a noisy host does not fail it.  The requests/sec floor is the
   one a user feels: it falls when a request costs more events, which the
   events/sec floor cannot see.

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
   traces in seconds of wall clock) and that the report's latency
   statistics are exactly :func:`~repro.sim.metrics.latency_stats` over
   its stored samples, one per completed request.  It then replays a mixed 16x PYNQ-Z2 +
   8x ZCU104 fleet at ``fidelity="event"`` (30 req/s, one class, 8,000
   requests; 4,000 under ``--quick``) and asserts at least 1,250
   requests/sec (half under ``--quick``).

Usage::

    PYTHONPATH=src python benchmarks/bench_sim_throughput.py            # engine+saturation
    PYTHONPATH=src python benchmarks/bench_sim_throughput.py --fleet    # fleet bench
    PYTHONPATH=src python benchmarks/bench_sim_throughput.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Tuple

from repro.api import Evaluator
from repro.sim import SimScenario, Simulator, latency_stats, simulate

MIN_EVENTS_PER_SEC = 100_000.0

#: The serving mix's floors (full run; --quick uses half).  The mix runs
#: 37,091 events for 900 requests.  With the arrivals read from a sorted
#: stream and the zero-delay entries from a FIFO lane in front of the heap,
#: five alternating full runs per side on a shared 2-CPU host (each the
#: best of five passes) measured 12,700-14,800 requests/sec and 524-611k
#: events/sec (median 14,100 requests/sec), against 10,200-12,700
#: requests/sec and 421-523k events/sec (median 11,600) with every entry in
#: the heap; the same runs' engine line read 804k-1,024k events/sec against
#: 758k-1,130k.  The requests/sec floor is 0.70x that low end (12,700).
#: The events/sec floor stays: the lane and the stream keep the event
#: count, so events/sec moves with requests/sec.  That host ran the heap
#: kernel about 1.7x faster than on the day of the next measurement, where
#: five alternating full runs per side (each the best of five passes) measured
#: 5,500-8,100 requests/sec and 227-333k events/sec (median 7,400
#: requests/sec) with every queue entry a process or a plain callable,
#: against 4,800-8,400 requests/sec and 200-346k events/sec (median 6,700)
#: with event objects left for contended grants and pipelined batch steps.
#: The requests/sec floor is 0.70x the low end (5,600) first measured with
#: processes that sleep on a bare delay, as the old floor, 3,500, was of
#: the low end (4,900) with a Timeout or Event per hop.
#: With a grant hop per free resource unit the mix ran 76,867 events:
#: 2,850-2,900 requests/sec and 240-250k events/sec (320-360k on quieter
#: days).  The events/sec floor dates from that longer mix, whose extra
#: events were the cheap ones.
MIN_SERVING_EVENTS_PER_SEC = 250_000.0
MIN_SERVING_REQUESTS_PER_SEC = 8_900.0

#: The fleet kernel's asserted floor (full run; --quick uses half).  On the
#: day-length trace (1,035,655 requests) a shared 2-CPU host ran 255-280k
#: events/sec (3.7-4.1 s) with a least-loaded scan of every board, and
#: 325-390k (2.6-3.2 s) with the balancer's heap index.
MIN_FLEET_EVENTS_PER_SEC = 100_000.0

#: The event-fidelity fleet's requests/sec floor (full run; --quick uses
#: half, on half the requests).  A shared 2-CPU host served 1,650-2,400
#: requests/sec on the 8,000-request 24-board replay (910-1,050 with a
#: grant hop per free resource unit).  Five alternating runs per side on a
#: quieter day read 4,260-4,860 requests/sec with the arrival stream and
#: the zero-delay lane, against 2,910-4,030 with every entry in the heap.
MIN_EVENT_FLEET_REQUESTS_PER_SEC = 1_250.0


def bench_engine(n_processes: int, hops: int) -> float:
    """Events/sec of the raw kernel: ``n_processes`` sleep chains."""

    sim = Simulator()

    def chain(offset: float):
        for k in range(hops):
            yield 0.001 + offset

    for i in range(n_processes):
        sim.process(chain(i * 1e-6))
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return sim.events_processed / elapsed


def bench_serving_mix() -> Tuple[float, float]:
    """Events/sec and requests/sec of ``simulate`` on the serve op1 mix
    (best of five passes)."""

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
    requests = sum(s.n_requests for s in scenarios)
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        events = sum(simulate(s, evaluator=evaluator).events_processed for s in scenarios)
        best = min(best, time.perf_counter() - start)
    print(
        f"serving mix: {events:,} events for {requests:,} requests -> "
        f"{1e9 * best / events:,.0f} ns/event, {events / best:,.0f} events/sec, "
        f"{requests / best:,.0f} requests/sec"
    )
    return events / best, requests / best


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
    """Day-length fleet run: events/sec floor + exact-percentile identity."""

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
        f"p99 {report.latency.percentiles[99] * 1e3:.1f} ms"
    )
    ok = True
    if not quick and offered < 1_000_000:
        print(f"FAIL: expected >= 1M offered requests (got {offered:,})", file=sys.stderr)
        ok = False
    if eps < floor:
        print(f"FAIL: fleet kernel below {floor:,.0f} events/sec", file=sys.stderr)
        ok = False

    # Identity: the percentiles are np.percentile over every stored latency.
    samples = report.latency_sketch.samples
    if len(samples) != report.requests["completed"] or report.latency != latency_stats(samples):
        print(
            f"FAIL: report latency is not latency_stats over its {len(samples):,} "
            f"stored samples ({report.requests['completed']:,} completed)",
            file=sys.stderr,
        )
        ok = False
    else:
        print(f"percentiles exact over all {len(samples):,} stored latencies")

    # Event fidelity: every board's admitted arrivals replayed through
    # repro.sim.simulate.
    n_requests = 4_000 if quick else 8_000
    floor = MIN_EVENT_FLEET_REQUESTS_PER_SEC / 2 if quick else MIN_EVENT_FLEET_REQUESTS_PER_SEC
    event_scenario = FleetScenario(
        boards=(BoardGroup("PYNQ-Z2", 16), BoardGroup("ZCU104", 8)),
        arrival_rate_hz=30.0,
        n_requests=n_requests,
        fidelity="event",
        seed=1,
    )
    start = time.perf_counter()
    replay = simulate_fleet(event_scenario)
    elapsed = time.perf_counter() - start
    rps = n_requests / elapsed
    print(
        f"event fleet: {n_requests:,} requests on 16x PYNQ-Z2 + 8x ZCU104 -> "
        f"{elapsed:.2f} s wall, {replay.events_processed / n_requests:,.1f} events/request, "
        f"{rps:,.0f} requests/sec"
    )
    if rps < floor:
        print(f"FAIL: event fleet below {floor:,.0f} requests/sec", file=sys.stderr)
        ok = False
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke (small runs, no floor)")
    parser.add_argument(
        "--fleet", action="store_true",
        help="run the fleet benchmark (events/sec floor + exact-percentile identity)",
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

    scale = 0.5 if args.quick else 1.0
    eps, rps = bench_serving_mix()
    if eps < scale * MIN_SERVING_EVENTS_PER_SEC:
        print(
            f"FAIL: serving mix below {scale * MIN_SERVING_EVENTS_PER_SEC:,.0f} events/sec",
            file=sys.stderr,
        )
        return 1
    if rps < scale * MIN_SERVING_REQUESTS_PER_SEC:
        print(
            f"FAIL: serving mix below {scale * MIN_SERVING_REQUESTS_PER_SEC:,.0f} requests/sec",
            file=sys.stderr,
        )
        return 1

    bench_saturation(rates, replicas_list, n_requests)
    print("\nok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
