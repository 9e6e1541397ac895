"""Serving reports pinned bit for bit against a fixture from a trusted commit.

The model layer may post fewer queue entries per request than the kernel
contract's reference (``repro.sim.engine``) only when every report field
other than ``events_processed`` stays bit-identical.  This module pins that
on a spread of runs: the three policies under Poisson and deterministic
arrivals at a light (2 req/s), a knee (8 req/s) and a past-capacity
(12 req/s) rate, one run per fault mode under ``batched``, replica death
and PS-core loss under ``fifo`` and ``round_robin`` too (round-robin
re-dispatches the dead replica's pinned queue), the death of a lone
replica under each policy (everything after it runs on the PS software
fallback), two ``batched`` kills that land while a batch of two is in
flight (before and after its first invocation finishes; the replica
revives a second later, or a millisecond later in a third run), one
warm-up run, a two-board event-fidelity fleet and fast-fidelity fleets over every
balancer path: least-loaded and batch routing (with spill), round-robin,
weighted, SLO admission and none, three cells, and autoscaling that powers
boards both up and down under least-loaded and weighted routing.  Three
more runs resolve same-instant ties in the order dropped zero-delay hops
left them in (two chains meeting at exactly the same float time):
ODENet-20 under ``fifo`` and ``round_robin`` at 25 req/s and rODENet-1-56
under ``batched(4)`` at 4 req/s.  ``tests/golden/report_identity.json``
holds each run's full ``as_dict()`` minus the event counts, and names the
commit it was generated at.

Regenerate the fixture (only at a commit whose reports are trusted)::

    PYTHONPATH=src python tests/sim/test_report_identity.py <commit>
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.faults.modes import FAULT_MODE_KINDS, make_fault_mode
from repro.fleet import BoardGroup, FleetScenario, TrafficClass, simulate_fleet
from repro.sim import SimScenario, simulate

FIXTURE = Path(__file__).resolve().parents[1] / "golden" / "report_identity.json"

#: The serve op1 mix's system: rODENet-3-20 on a PYNQ-Z2, 2 replicas, 2 PS cores.
BASE = SimScenario(
    model="rODENet-3",
    depth=20,
    board="PYNQ-Z2",
    replicas=2,
    ps_cores=2,
    batch_size=4,
    n_requests=100,
    seed=1,
)

RATES = {"light": 2.0, "knee": 8.0, "past_capacity": 12.0}

_TWO_CLASSES = (
    TrafficClass("interactive", 0.8, "latency"),
    TrafficClass("nightly", 0.2, "batch"),
)
_MIXED = FleetScenario(
    boards=(BoardGroup("PYNQ-Z2", 3), BoardGroup("ZCU104", 2)),
    classes=_TWO_CLASSES,
    arrival_rate_hz=10.0,
    n_requests=1500,
    seed=1,
)

#: Fast-fidelity fleets, one per balancer path.
FAST_FLEETS = {
    # The serve op2 fleet (perfbench), at a tenth of its requests.
    "serve_op2_4000": FleetScenario(
        boards=(BoardGroup("PYNQ-Z2", 16), BoardGroup("ZCU104", 8)),
        classes=(
            TrafficClass("interactive", 0.9, "latency"),
            TrafficClass("batch", 0.1, "batch"),
        ),
        arrival_rate_hz=30.0,
        n_requests=4000,
        seed=1,
    ),
    # Powers boards up and down (test_autoscale_fires_both_ways).
    "autoscale": FleetScenario(
        boards=(BoardGroup("PYNQ-Z2", 3), BoardGroup("ZCU104", 1)),
        classes=_TWO_CLASSES,
        arrival_rate_hz=3.0,
        n_requests=2000,
        replicas=1,
        autoscale=True,
        autoscale_interval_s=2.0,
        seed=1,
    ),
    "cells3": _MIXED.replace(
        boards=(BoardGroup("PYNQ-Z2", 4), BoardGroup("ZCU104", 2)), arrival_rate_hz=20.0, cells=3
    ),
    "admission_none": _MIXED.replace(admission="none"),
    # One batch class: the cheapest board backs up and spills
    # (test_batch_class_spills).
    "batch_spill": FleetScenario(
        boards=(BoardGroup("PYNQ-Z2", 4), BoardGroup("ZCU104", 2)),
        classes=(TrafficClass("bulk", kind="batch"),),
        arrival_rate_hz=5.0,
        n_requests=2000,
        seed=1,
    ),
    "round_robin": _MIXED.replace(routing="round_robin"),
    "weighted": _MIXED.replace(routing="weighted"),
}
# Weighted routing over a powered set that shrinks and grows.
FAST_FLEETS["weighted_autoscale"] = FAST_FLEETS["autoscale"].replace(routing="weighted")

#: Fault modes also pinned under the unbatched policies, past capacity and
#: injected when round-robin's first replica has a pinned queue behind its
#: in-flight invocation (both are re-dispatched).
POLICY_FAULTS = ("replica_death", "ps_core_loss")
POLICY_FAULT_AT = 6.5

#: Kill instants of replica 0 past capacity under ``batched``: both land
#: while it serves a batch of two, first with neither invocation finished,
#: then with the first one finished.
MID_BATCH_AT = {"mid_batch": 1.94, "mid_batch_half_done": 1.95}
#: Repair time of the ``mid_batch`` kill's fast-repair twin.
FAST_REPAIR_S = 0.001

#: Poisson traffic on 2 replicas, 2 PS cores and 1 DMA channel where a
#: replica's compute ends at the instant another replica's DMA-out ends.
TIE = SimScenario(
    arrival="poisson", replicas=2, ps_cores=2, dma_channels=1, n_requests=60, seed=3
)
TIES = {
    "tie/odenet20_fifo": TIE.replace(
        model="ODENet", depth=20, policy="fifo", arrival_rate_hz=25.0
    ),
    "tie/odenet20_round_robin": TIE.replace(
        model="ODENet", depth=20, policy="round_robin", arrival_rate_hz=25.0
    ),
    "tie/rodenet1_56_batched4": TIE.replace(
        model="rODENet-1", depth=56, policy="batched", batch_size=4, arrival_rate_hz=4.0
    ),
}


def _runs() -> Dict[str, Callable[[], object]]:
    runs: Dict[str, Callable[[], object]] = {}
    for policy in ("fifo", "batched", "round_robin"):
        for arrival in ("poisson", "deterministic"):
            for load, rate in RATES.items():
                scenario = BASE.replace(policy=policy, arrival=arrival, arrival_rate_hz=rate)
                runs[f"{policy}/{arrival}/{load}"] = lambda s=scenario: simulate(s)
    knee = BASE.replace(policy="batched", arrival_rate_hz=RATES["knee"])
    for kind in FAULT_MODE_KINDS:
        runs[f"fault/{kind}"] = lambda k=kind: simulate(
            knee, faults=[(make_fault_mode(k), 2.0)], fault_seed=3
        )
    for policy in ("fifo", "round_robin"):
        loaded = BASE.replace(policy=policy, arrival_rate_hz=RATES["past_capacity"])
        for kind in POLICY_FAULTS:
            runs[f"fault/{kind}/{policy}"] = lambda s=loaded, k=kind: simulate(
                s, faults=[(make_fault_mode(k), POLICY_FAULT_AT)], fault_seed=3
            )
    for policy in ("fifo", "batched", "round_robin"):
        lone = BASE.replace(policy=policy, replicas=1, arrival_rate_hz=RATES["knee"])
        runs[f"fault/replica_death/ps_fallback/{policy}"] = lambda s=lone: simulate(
            s, faults=[(make_fault_mode("replica_death"), 2.0)], fault_seed=3
        )
    batched = BASE.replace(policy="batched", arrival_rate_hz=RATES["past_capacity"])
    transient = make_fault_mode("replica_death", duration_s=1.0)
    for name, t in MID_BATCH_AT.items():
        runs[f"fault/replica_death/{name}"] = lambda t=t: simulate(
            batched, faults=[(transient, t)], fault_seed=3
        )
    # The same kill, repaired 1 ms later: the replica revives before its
    # killed service loop reaches a resume point.
    fast_repair = make_fault_mode("replica_death", duration_s=FAST_REPAIR_S)
    runs["fault/replica_death/mid_batch_fast_repair"] = lambda: simulate(
        batched, faults=[(fast_repair, MID_BATCH_AT["mid_batch"])], fault_seed=3
    )
    runs["warmup"] = lambda: simulate(knee.replace(warmup_s=3.0, slo_s=0.9))
    for name, scenario in TIES.items():
        runs[name] = lambda s=scenario: simulate(s)
    fleet = FleetScenario(
        boards=(BoardGroup("PYNQ-Z2", 2),),
        arrival_rate_hz=4.0,
        n_requests=200,
        fidelity="event",
        seed=1,
    )
    runs["fleet/2x_pynq_z2_event"] = lambda: simulate_fleet(fleet)
    for name, scenario in FAST_FLEETS.items():
        runs[f"fleet/{name}"] = lambda s=scenario: simulate_fleet(s)
    return runs


RUNS = _runs()


def _without_event_counts(value: object) -> object:
    if isinstance(value, dict):
        return {k: _without_event_counts(v) for k, v in value.items() if k != "events_processed"}
    if isinstance(value, list):
        return [_without_event_counts(v) for v in value]
    return value


def report_payload(name: str) -> object:
    """One run's ``as_dict()`` minus event counts, as it reads back from JSON."""

    return _without_event_counts(json.loads(json.dumps(RUNS[name]().as_dict())))


def _fixture() -> Dict[str, object]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_run():
    assert sorted(_fixture()["reports"]) == sorted(RUNS)


def test_autoscale_fires_both_ways():
    for name in ("fleet/autoscale", "fleet/weighted_autoscale"):
        autoscale = _fixture()["reports"][name]["autoscale"]
        assert autoscale["power_ups"] > 0, name
        assert autoscale["power_downs"] > 0, name


def test_round_robin_replica_death_redispatches():
    faults = _fixture()["reports"]["fault/replica_death/round_robin"]["faults"]
    assert faults["redispatched"] > 1


@pytest.mark.parametrize("policy", ("fifo", "batched", "round_robin"))
def test_lone_replica_death_reaches_the_ps_fallback(policy):
    faults = _fixture()["reports"][f"fault/replica_death/ps_fallback/{policy}"]["faults"]
    assert faults["ps_fallback_served"] > 0
    assert faults["redispatched"] > 0


def test_mid_batch_kill_redispatches():
    # Survivors share the queue, so only in-flight invocations re-dispatch:
    # two means the kill caught both of a batch unfinished.
    reports = _fixture()["reports"]
    assert reports["fault/replica_death/mid_batch"]["faults"]["redispatched"] > 1
    assert reports["fault/replica_death/mid_batch_half_done"]["faults"]["redispatched"] > 0


def test_fast_repair_serves_no_invocation_twice():
    # Revived a millisecond after the kill, before the killed service loop
    # reaches a resume point: only the revived loop serves, so the bus
    # moves what it moves when the replica stays down for a second.
    fast = RUNS["fault/replica_death/mid_batch_fast_repair"]()
    slow = RUNS["fault/replica_death/mid_batch"]()
    assert fast.bus == slow.bus


def test_batch_class_spills():
    # Every board type serves: the cheapest board's backlog spilled over.
    boards = _fixture()["reports"]["fleet/batch_spill"]["boards"]
    assert all(group["served"] > 0 for group in boards)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_is_bit_identical_to_fixture(name):
    # json round-trips floats through repr, so == is equality to the last bit.
    assert report_payload(name) == _fixture()["reports"][name]


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps(
            {
                "commit": sys.argv[1],
                "reports": {name: report_payload(name) for name in sorted(RUNS)},
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {len(RUNS)} reports to {FIXTURE}")
