"""The queue entries a served request costs, pinned to a closed form.

A lone request on one replica under ``fifo`` never contends, so every entry
it posts is structural.  Each offloaded ODEBlock invocation costs five:
the parked worker's wake, its DMA-in, compute and DMA-out delays, and the
wake of the request parked on the invocation.  Each PS segment costs one
delay (a free core is booked in line, with no grant entry).  Two more open
the run: the replica worker's start and the request's start; the request
process has no ``done``, so its return posts nothing.  A zero-delay hop
added back anywhere on that path breaks the equality below.  A second
table pins the recorded entry counts of real, contended serving runs.
"""

from __future__ import annotations

import pytest

from repro import fleet
from repro.faults import AxiDegradation, DmaCorruption
from repro.fleet import shard
from repro.sim import PlExecution, Resource, SimScenario, build_service_plan, simulate

FIXED_ENTRIES = 2  # worker start, request start
PER_INVOCATION = 5  # worker wake, DMA in, compute, DMA out, request wake
PER_PS_SEGMENT = 1  # the segment's delay


@pytest.mark.parametrize("depth", [20, 56])
def test_lone_fifo_request_costs_the_closed_form(depth):
    scenario = SimScenario(
        model="rODENet-3", depth=depth, arrival="deterministic", n_requests=1, policy="fifo"
    )
    plan = build_service_plan(scenario.design_point)
    offloaded = [s for s in plan.segments if isinstance(s, PlExecution)]
    k, m = len(offloaded), len(plan.segments) - len(offloaded)
    assert k > 0 and m > 0
    # Every invocation moves data both ways, so both DMA delays are posted.
    assert all(x.words_in > 0 and x.words_out > 0 for x in offloaded)

    report = simulate(scenario)
    assert report.scenario["replicas"] == 1
    assert report.events_processed == PER_INVOCATION * k + PER_PS_SEGMENT * m + FIXED_ENTRIES


class _CountingRequests:
    """Counts contended grants: calls of ``Resource.enqueue`` on the PS pool."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = Resource.enqueue

        def enqueue(resource):
            if resource.name == "ps":
                self.calls += 1
            return original(resource)

        monkeypatch.setattr(Resource, "enqueue", enqueue)


def _software_only(**kw) -> SimScenario:
    # ResNet has no offload target: every segment is PS work, so the
    # report's queueing wait is PS wait alone.
    return SimScenario(model="ResNet", depth=20, arrival="trace", ps_cores=1, **kw)


def test_free_ps_core_is_booked_without_a_grant(monkeypatch):
    spy = _CountingRequests(monkeypatch)
    report = simulate(_software_only(trace=(0.0,)))
    assert spy.calls == 0
    assert report.wait.maximum == 0.0


def test_saturated_ps_pool_takes_the_contended_path(monkeypatch):
    spy = _CountingRequests(monkeypatch)
    report = simulate(_software_only(trace=(0.0, 0.0, 0.0)))
    assert spy.calls > 0
    assert report.wait.maximum > 0.0
    assert report.requests["completed"] == 3


# -- entry counts of real serving runs --------------------------------------------------
#
# Contended runs post entries no closed form predicts, so these counts are
# pinned as recorded.  A change to the kernel or the serving model that
# fuses, drops or adds a queue entry anywhere on these paths (lane, heap,
# stream, parked waiters, the batch pipeline's overlapped DMA, fault
# callbacks) moves one of them.


def _serve_op1(rate: float) -> SimScenario:
    # The serving benchmark's rODENet-3 mix: two replicas, batched(4).
    return SimScenario(
        model="rODENet-3", depth=20, board="PYNQ-Z2", replicas=2, policy="batched",
        batch_size=4, ps_cores=2, arrival_rate_hz=rate, n_requests=300, seed=1,
    )


def _one_replica_batched(rate: float) -> SimScenario:
    return SimScenario(
        model="rODENet-3", depth=20, arrival="poisson", arrival_rate_hz=rate, n_requests=60,
        replicas=1, policy="batched", batch_size=4, ps_cores=2, seed=0,
    )


def _simulated(scenario, fault=None):
    # A fault is injected at 1 s and cleared 3 s later.
    return lambda: simulate(scenario, faults=[(fault(duration_s=3.0), 1.0)] if fault else None)


def _event_fleet():
    pair = fleet.FleetScenario(boards=(fleet.BoardGroup("PYNQ-Z2", 2),), admission="none", seed=1)
    return shard.simulate_fleet(
        pair.replace(arrival_rate_hz=2.0, n_requests=300, fidelity="event")
    )


SERVING_RUNS = {
    "serve-op1-r2": (_simulated(_serve_op1(2.0)), 11_214),
    "serve-op1-r8": (_simulated(_serve_op1(8.0)), 12_136),
    "serve-op1-r12": (_simulated(_serve_op1(12.0)), 12_841),
    "serve-op3-event-fleet": (_event_fleet, 36_937),
    "batched4-overlap-r12": (_simulated(_one_replica_batched(12.0)), 3_044),
    "dma-corruption": (_simulated(_one_replica_batched(8.0), DmaCorruption), 2_588),
    "axi-degraded": (_simulated(_one_replica_batched(8.0), AxiDegradation), 2_596),
}


@pytest.mark.parametrize("name", sorted(SERVING_RUNS))
def test_serving_run_entry_count_is_pinned(name):
    run, entries = SERVING_RUNS[name]
    report = run()
    assert report.requests["completed"] == report.requests["offered"]
    assert report.events_processed == entries


def test_pinned_runs_reach_the_paths_they_pin():
    # The batch pipeline overlaps DMA only when a batch holds two or more.
    assert simulate(_one_replica_batched(12.0)).batch_sizes["mean"] > 1.5
    corrupted = _simulated(_one_replica_batched(8.0), DmaCorruption)()
    assert corrupted.faults["corrupted_words"] > 0
    nominal = simulate(_one_replica_batched(8.0))
    degraded = _simulated(_one_replica_batched(8.0), AxiDegradation)()
    # A degraded bus stretches the bursts in its window.
    assert degraded.latency.mean > nominal.latency.mean
