"""Serving reports pinned bit for bit against a fixture from a trusted commit.

The model layer may post fewer queue entries per request than the kernel
contract's reference (``repro.sim.engine``) only when every report field
other than ``events_processed`` stays bit-identical.  This module pins that
on a spread of runs: the three policies under Poisson and deterministic
arrivals at a light (2 req/s), a knee (8 req/s) and a past-capacity
(12 req/s) rate, one run per fault mode, one warm-up run and a two-board
event-fidelity fleet.  ``tests/golden/report_identity.json`` holds each
run's full ``as_dict()`` minus the event counts, and names the commit it
was generated at.

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
from repro.fleet import BoardGroup, FleetScenario, simulate_fleet
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
    runs["warmup"] = lambda: simulate(knee.replace(warmup_s=3.0, slo_s=0.9))
    fleet = FleetScenario(
        boards=(BoardGroup("PYNQ-Z2", 2),),
        arrival_rate_hz=4.0,
        n_requests=200,
        fidelity="event",
        seed=1,
    )
    runs["fleet/2x_pynq_z2_event"] = lambda: simulate_fleet(fleet)
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
