"""The scenario schema: every scenario type serialises, validates and copies
its knobs by dataclass field name.

Covers :class:`~repro.api.Scenario`, :class:`~repro.sim.SimScenario` and
:class:`~repro.fleet.FleetScenario` together: the ``as_dict`` key order (JSON
key order follows field declaration order), nested board groups and traffic
classes as JSON, integer-only counts stored as plain ints, and the
optimizer's fixed knobs, which reach a scenario only through a field of the
same name.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.analysis import strict_json
from repro.api import Scenario
from repro.fleet import BoardGroup, FleetScenario, TrafficClass, simulate_fleet
from repro.opt.space import FIXED_KEYS
from repro.sim import SimScenario, simulate

SCENARIO_KEYS = [
    "model", "depth", "n_units", "word_length", "fraction_bits", "solver", "board",
    "pl_clock_hz",
]
SIM_KEYS = SCENARIO_KEYS + [
    "arrival", "arrival_rate_hz", "n_requests", "duration_s", "trace", "replicas",
    "policy", "batch_size", "seed", "ps_cores", "dma_channels", "warmup_s", "slo_s",
]
FLEET_KEYS = [
    "boards", "classes", "model", "depth", "n_units", "word_length", "fraction_bits",
    "arrival", "arrival_rate_hz", "n_requests", "duration_s", "trace",
    "replicas", "routing", "admission", "slo_s", "autoscale", "autoscale_interval_s",
    "cells", "seed", "fidelity",
]


class TestAsDict:
    @pytest.mark.parametrize(
        "cls, keys",
        [(Scenario, SCENARIO_KEYS), (SimScenario, SIM_KEYS), (FleetScenario, FLEET_KEYS)],
        ids=["scenario", "sim", "fleet"],
    )
    def test_key_order_of_defaults(self, cls, keys):
        assert list(cls().as_dict()) == keys

    def test_fleet_nests_groups_and_classes_as_dicts(self):
        data = FleetScenario().as_dict()
        assert data["boards"] == [{"board": "PYNQ-Z2", "count": 4}]
        assert data["classes"] == [
            {"name": "interactive", "weight": 1.0, "kind": "latency", "slo_s": None}
        ]


class TestRoundTrip:
    def test_fleet_with_trace_groups_and_classes(self):
        fleet = FleetScenario(
            boards=(BoardGroup("PYNQ-Z2", 3), BoardGroup("ZCU104", 2)),
            classes=(
                TrafficClass("interactive", 0.7, "latency", slo_s=0.25),
                TrafficClass("nightly", 0.3, "batch"),
            ),
            arrival="trace",
            trace=(0.0, 0.1, 0.4, 1.5),
            admission="none",
            seed=7,
        )
        data = json.loads(json.dumps(fleet.as_dict()))
        assert data["trace"] == [0.0, 0.1, 0.4, 1.5]
        assert data["classes"][0]["slo_s"] == 0.25


class TestIntegerCounts:
    @pytest.mark.parametrize(
        "cls, field, value",
        [
            (SimScenario, "batch_size", 2.5),
            (SimScenario, "dma_channels", 1.5),
            (SimScenario, "ps_cores", 1.5),
            (SimScenario, "replicas", 1.5),
            (SimScenario, "n_requests", 2.5),
            (FleetScenario, "replicas", 1.5),
            (FleetScenario, "n_requests", 2.5),
            (FleetScenario, "cells", 1.5),
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
    )
    def test_non_integer_is_rejected_by_name(self, cls, field, value):
        kwargs = {field: value, **({"policy": "batched"} if cls is SimScenario else {})}
        with pytest.raises(ValueError, match=f"{field} must be a"):
            cls(**kwargs)

    def test_integer_like_values_are_accepted(self):
        # NumPy counts are stored as plain ints, so the run's report (which
        # echoes the scenario) is strict JSON.
        for cls, counts in [
            (SimScenario, dict(batch_size=np.int64(2), n_requests=np.int64(5))),
            (SimScenario, dict(replicas=np.int64(2), n_requests=np.int64(5), seed=np.int64(3))),
            (FleetScenario, dict(n_units=np.int64(8), n_requests=np.int64(5), seed=np.int64(3))),
        ]:
            s = cls(**counts)
            assert {k: (type(getattr(s, k)), getattr(s, k)) for k in counts} == {
                k: (int, int(v)) for k, v in counts.items()
            }
            report = simulate(s) if cls is SimScenario else simulate_fleet(s)
            strict_json(report.as_dict())


class TestFixedKeys:
    def test_every_fixed_knob_reaches_some_scenario(self):
        fields = {
            f.name
            for cls in (Scenario, SimScenario, FleetScenario)
            for f in dataclasses.fields(cls)
        }
        assert [key for key in FIXED_KEYS if key != "count" and key not in fields] == []
