"""The queue entries a served request costs, pinned to a closed form.

A lone request on one replica under ``fifo`` never contends, so every entry
it posts is structural.  Each offloaded ODEBlock invocation costs five:
the parked worker's wake, its DMA-in, compute and DMA-out delays, and the
wake of the request parked on the invocation.  Each PS segment costs one
delay (a free core is booked in line, with no grant entry).  Three more open and
close the run: the replica worker's start, the request's start and its
completion.  A zero-delay hop added back anywhere on that path breaks the
equality below.
"""

from __future__ import annotations

import pytest

from repro.sim import PlExecution, Resource, SimScenario, build_service_plan, simulate

FIXED_ENTRIES = 3  # worker start, request start, request completion
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
