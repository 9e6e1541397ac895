"""The fleet's per-class tally and the per-class mean wait of the merge.

:meth:`ClassCell.served` appends straight to the class's sample buffers,
so it owns the sample store's ``[0, inf)`` rule.  :func:`merge_cells` sums
each class's waits on demand, in the order the running total it replaced
used: left to right within each cell from 0.0, then the cell sums in
ascending cell order.  The reference below spells that order out with
plain ``+=`` (never ``sum``, which compensates on Python 3.12+, nor
``math.fsum``), so the pin holds on every supported Python.
"""

from __future__ import annotations

import math

import pytest

from repro.fleet import BoardGroup, FleetScenario, TrafficClass, run_cell, simulate_fleet
from repro.fleet.report import ClassCell

BAD = (float("nan"), -1.0, float("inf"))


class TestServed:
    @pytest.mark.parametrize("bad", BAD, ids=repr)
    @pytest.mark.parametrize("slot", ["latency", "wait"])
    def test_rejects_a_bad_value_and_records_nothing(self, bad, slot):
        cell = ClassCell(name="c", kind="latency", slo_s=1.0)
        cell.served(0.5, 0.25)
        values = {"latency": 0.5, "wait": 0.25, slot: bad}
        with pytest.raises(ValueError, match="finite and non-negative") as err:
            cell.served(values["latency"], values["wait"])
        assert repr(bad) in str(err.value)
        assert cell.completed == 1
        assert list(cell.latency.samples) == [0.5]
        assert list(cell.wait.samples) == [0.25]

    def test_appends_both_values_verbatim(self):
        cell = ClassCell(name="c", kind="latency", slo_s=1.0)
        for latency, wait in [(0.0, 0.0), (1.5, 0.75), (0.125, 0.0)]:
            cell.served(latency, wait)
        assert cell.completed == 3
        assert list(cell.latency.samples) == [0.0, 1.5, 0.125]
        assert list(cell.wait.samples) == [0.0, 0.75, 0.0]
        assert cell.violations == 1  # 1.5 s against a 1 s SLO


def _classes() -> tuple:
    return (
        TrafficClass("interactive", weight=0.7),
        TrafficClass("bulk", weight=0.3, kind="batch"),
    )


FAST = FleetScenario(
    boards=(BoardGroup("PYNQ-Z2", 3), BoardGroup("ZCU104", 3)),
    classes=_classes(),
    arrival_rate_hz=40.0,
    n_requests=3_000,
    cells=3,
    seed=7,
)
EVENT = FleetScenario(
    boards=(BoardGroup("PYNQ-Z2", 2), BoardGroup("ZCU104", 2)),
    classes=_classes(),
    arrival_rate_hz=40.0,
    n_requests=160,
    cells=2,
    fidelity="event",
    seed=3,
)


def _reference_means(scenario: FleetScenario) -> list:
    """Per class: ``+=`` over each cell's waits, then over the cell sums."""

    cells = [run_cell(scenario, c) for c in range(scenario.cells)]
    means = []
    for ci in range(len(scenario.classes)):
        total, n = 0.0, 0
        for r in cells:
            cell_sum = 0.0
            for v in r.classes[ci].wait.samples:
                cell_sum += v
            total += cell_sum
            n += len(r.classes[ci].wait.samples)
        means.append(total / n if n else float("nan"))
    return means


@pytest.mark.parametrize(
    "scenario, shards",
    [(FAST, 1), (FAST, 2), (EVENT, 1)],
    ids=["fast-3-cells-shards-1", "fast-3-cells-shards-2", "event-2-cells"],
)
def test_wait_mean_is_the_per_cell_running_sum(scenario, shards):
    report = simulate_fleet(scenario, shards=shards)
    expected = _reference_means(scenario)
    got = [c["wait_mean_s"] for c in report.classes]
    assert [v.hex() for v in got] == [v.hex() for v in expected]


@pytest.mark.parametrize("scenario", [FAST, EVENT], ids=["fast", "event"])
def test_the_summation_order_is_observable(scenario):
    # The pin above is not vacuous: summing the merged buffer left to right
    # in one pass (no per-cell restart) lands on a different last bit for at
    # least one class of each fleet.
    report = simulate_fleet(scenario)
    one_pass = []
    for ci in range(len(scenario.classes)):
        total, n = 0.0, 0
        for r in (run_cell(scenario, c) for c in range(scenario.cells)):
            for v in r.classes[ci].wait.samples:
                total += v
            n += len(r.classes[ci].wait.samples)
        one_pass.append(total / n)
    assert any(c["wait_mean_s"] != m for c, m in zip(report.classes, one_pass))
    assert all(math.isfinite(c["wait_mean_s"]) for c in report.classes)
