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
   Prints ns/event and requests/sec, and asserts at least 8,900
   requests/sec (half under ``--quick``), best of five passes so a noisy
   host does not fail it.  Requests/sec is the rate a user feels: it falls
   when a request costs more events or each event costs more, where an
   events/sec floor would fall whenever cheap events are removed.

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
   its stored samples, one per completed request.  It then serves a mixed 16x
   PYNQ-Z2 + 8x ZCU104 fleet at ``fidelity="event"`` (one transaction-level
   simulation of all 24 boards; 30 req/s, one class, 8,000 requests; 4,000
   under ``--quick``) and asserts at least 1,250 requests/sec (half under
   ``--quick``).

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
from repro.sim import Process, SimScenario, Simulator, latency_stats, simulate

MIN_EVENTS_PER_SEC = 100_000.0

#: The serving mix's floor (full run; --quick uses half).  The mix runs
#: 36,191 events for 900 requests.  With the clock a Python float (Poisson
#: arrival times leave NumPy through ``tolist``; the kernel converts any
#: ``float`` subclass), five alternating runs per side on a shared 2-CPU
#: host measured 20,100-21,600 requests/sec and 808-868k events/sec (median
#: 20,500) against 16,400-18,200 requests/sec and 659-733k events/sec
#: (median 17,400) with a ``np.float64`` clock.  Before that, with processes
#: resumed in the run loop and DMA bursts booked in line (no call frame per
#: entry, no generator per burst), five alternating runs per side on a
#: shared 2-CPU host measured 19,000-20,200 requests/sec and 765-811k
#: events/sec (median 19,300) against 15,300-18,000 requests/sec and
#: 616-726k events/sec (median 16,100) with ``Process.__call__`` and a
#: ``Resource.use`` generator per burst; the engine line read 1,211k-1,372k
#: events/sec against 1,127k-1,275k.  Earlier, with a finished request's
#: completion entry dropped, five alternating full runs per side on a shared
#: 2-CPU host (each the best of five passes) measured 13,800-16,000
#: requests/sec and 554-642k events/sec (median 14,800 requests/sec),
#: against 11,600-14,200 requests/sec and 480-584k events/sec (median
#: 13,600) with that entry; the engine line read 699k-1,142k events/sec
#: against 909k-1,151k.  The floor stays at 8,900, 0.70x the low end (12,700)
#: first measured with the arrival stream and the zero-delay lane.  There is
#: no events/sec floor: the events a change removes are the cheap ones, so
#: events/sec falls when requests/sec holds or rises, and a mix at about 40
#: events per request meets 8,900 requests/sec only at about 360k
#: events/sec, stricter than the old 250k floor.  Earlier mixes: with a
#: Timeout or Event per hop the requests/sec floor was 3,500, 0.70x the low
#: end then (4,900); with a grant hop per free resource unit the mix ran
#: 76,867 events at 2,850-2,900 requests/sec.
MIN_SERVING_REQUESTS_PER_SEC = 8_900.0

#: The fleet kernel's asserted floor (full run; --quick uses half).  On the
#: day-length trace (1,035,655 requests, four cells of three boards) a
#: shared 2-CPU host ran 439-603k events/sec (1.71-2.36 s, five runs), with
#: least-loaded routing a scan of the boards' ``ready_at`` keys.  With a
#: served request recorded as two buffer appends (no running sum), five
#: alternating runs per side read 1.74-2.90 s (356-595k events/sec) against
#: 1.75-2.54 s (407-591k) before: single runs on that host spread too
#: widely to show a change either way.
MIN_FLEET_EVENTS_PER_SEC = 100_000.0

#: The event-fidelity fleet's requests/sec floor (full run; --quick uses
#: half, on half the requests).  A shared 2-CPU host served 1,650-2,400
#: requests/sec on the 8,000-request 24-board replay (910-1,050 with a
#: grant hop per free resource unit).  Five alternating runs per side on a
#: quieter day read 4,260-4,860 requests/sec with the arrival stream and
#: the zero-delay lane, against 2,910-4,030 with every entry in the heap.
#: Five alternating runs per side, with processes resumed in the run loop
#: and DMA bursts booked in line: 6,170-6,580 requests/sec (median 6,390),
#: against 4,970-5,670 (median 5,350) before.
MIN_EVENT_FLEET_REQUESTS_PER_SEC = 1_250.0


def bench_engine(n_processes: int, hops: int) -> float:
    """Events/sec of the raw kernel: ``n_processes`` sleep chains."""

    sim = Simulator()

    def chain(offset: float):
        for k in range(hops):
            yield 0.001 + offset

    for i in range(n_processes):
        Process(sim, chain(i * 1e-6))
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return sim.events_processed / elapsed


def bench_serving_mix() -> float:
    """Requests/sec of ``simulate`` on the serve op1 mix (best of five
    passes); prints events/sec and ns/event beside it."""

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
    return requests / best


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

    # Event fidelity: the whole cell as one transaction-level simulation,
    # each request routed on live board state.
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
    event = simulate_fleet(event_scenario)
    elapsed = time.perf_counter() - start
    rps = n_requests / elapsed
    print(
        f"event fleet: {n_requests:,} requests on 16x PYNQ-Z2 + 8x ZCU104 -> "
        f"{elapsed:.2f} s wall, {event.events_processed / n_requests:,.1f} events/request, "
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
    rps = bench_serving_mix()
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
