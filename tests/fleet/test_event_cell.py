"""Event fidelity serves each cell as one simulation that routes on what it
simulates.

* It never consults the fast kernel's slot heaps: with
  ``BoardServer.assign`` and ``BoardServer.predicted_start`` broken, a
  mixed-class, SLO-admitted event fleet still runs.
* Requests carry their class, so splitting one class into two that route
  alike changes nothing but the order the samples are summed in.
* A board's predicted start is live: ``outstanding`` rises when a request
  is admitted there and falls when it completes.
* Shard count never changes the numbers.
"""

from __future__ import annotations

import json

import pytest

from repro.fleet import BoardGroup, BoardServer, FleetScenario, TrafficClass, simulate_fleet
from repro.fleet.runner import EventBoard

MIXED = FleetScenario(
    boards=(BoardGroup("ZCU104", 1), BoardGroup("PYNQ-Z2", 2)),
    classes=(
        TrafficClass("interactive", weight=0.7, kind="latency", slo_s=0.9),
        TrafficClass("bulk", weight=0.3, kind="batch"),
    ),
    arrival_rate_hz=12.0,
    n_requests=240,
    admission="slo",
    fidelity="event",
    seed=2,
)


def test_event_fleet_never_reads_the_slot_heaps(monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("event fidelity read the fast kernel's slot heaps")

    monkeypatch.setattr(BoardServer, "assign", broken)
    monkeypatch.setattr(BoardServer, "predicted_start", broken)
    report = simulate_fleet(MIXED)
    requests = report.requests
    assert requests["offered"] == 240
    assert requests["completed"] + requests["rejected"] == 240
    interactive, bulk = report.classes
    assert interactive["rejected"] > 0  # SLO admission refused some
    assert bulk["rejected"] == 0  # batch traffic is never refused
    assert bulk["completed"] > 0
    assert sum(b["served"] for b in report.boards) == requests["completed"]
    with pytest.raises(AssertionError, match="slot heaps"):
        simulate_fleet(MIXED.replace(fidelity="fast"))


def test_two_classes_that_route_alike_merge_to_the_one_class_run():
    one = FleetScenario(
        boards=(BoardGroup("PYNQ-Z2", 2), BoardGroup("ZCU104", 1)),
        classes=(TrafficClass("only"),),
        arrival_rate_hz=9.0,
        n_requests=300,
        admission="none",
        fidelity="event",
        seed=4,
    )
    two = one.replace(classes=(TrafficClass("a", weight=0.6), TrafficClass("b", weight=0.4)))
    merged, single = simulate_fleet(two), simulate_fleet(one)
    assert [c["offered"] for c in merged.classes] != [0, 300]
    assert merged.requests == single.requests
    for name in ("latency", "wait"):
        got, want = getattr(merged, name), getattr(single, name)
        assert got.count == want.count
        assert got.percentiles == want.percentiles
        assert (got.minimum, got.maximum) == (want.minimum, want.maximum)
        assert got.mean == pytest.approx(want.mean, rel=1e-12)
    assert merged.energy == single.energy
    assert merged.boards == single.boards
    assert merged.horizon_s == single.horizon_s
    assert merged.events_processed == single.events_processed


def test_live_predicted_start_rule():
    board = EventBoard(
        index=0, group=0, name="PYNQ-Z2", replicas=2, svc_s=0.5, ps_s=0.1,
        pl_w=1.0, ps_active_w=1.0, ps_idle_w=0.5, ps_cores=2,
    )
    # One service time per full round of the replicas ahead of a request.
    for outstanding, wait in ((0, 0.0), (1, 0.0), (2, 0.5), (3, 0.5), (4, 1.0)):
        board.outstanding = outstanding
        assert board.predicted_start(10.0) == 10.0 + wait


def test_outstanding_rises_on_admit_and_falls_on_completion(monkeypatch):
    seen = []
    live = EventBoard.predicted_start

    def spy(self, t):
        seen.append((t, self.outstanding))
        return live(self, t)

    monkeypatch.setattr(EventBoard, "predicted_start", spy)
    trace = (0.0, 0.001, 0.002, 60.0)  # three at once, then one after they all finish
    report = simulate_fleet(
        FleetScenario(
            boards=(BoardGroup("PYNQ-Z2", 1),), arrival="trace", trace=trace, replicas=1,
            admission="none", fidelity="event",
        )
    )
    assert report.requests["completed"] == 4
    assert seen == [(0.0, 0), (0.001, 1), (0.002, 2), (60.0, 0)]


def test_event_cells_are_shard_invariant():
    scenario = MIXED.replace(cells=2, n_requests=160)
    d1 = simulate_fleet(scenario, shards=1).as_dict()
    d2 = simulate_fleet(scenario, shards=2).as_dict()
    assert d1.pop("shards") == 1
    assert d2.pop("shards") == 2
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
