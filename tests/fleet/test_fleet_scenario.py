"""``FleetScenario`` refuses board groups and traffic classes of the wrong
type with a named error, before any field of them is read."""

from __future__ import annotations

import pytest

from repro.fleet import BoardGroup, FleetScenario, TrafficClass

GROUP = BoardGroup("PYNQ-Z2", 2)


@pytest.mark.parametrize(
    "boards, got",
    [
        (({"board": "PYNQ-Z2", "count": 2},), "dict"),
        ((("PYNQ-Z2", 2),), "tuple"),
        (("PYNQ-Z2",), "str"),
        ((GROUP, "ZCU104"), "str"),
    ],
)
def test_board_group_of_the_wrong_type(boards, got):
    index = len(boards) - 1
    with pytest.raises(ValueError, match=rf"^boards\[{index}\] must be a BoardGroup \(got {got}\)$"):
        FleetScenario(boards=boards)


@pytest.mark.parametrize(
    "classes, got",
    [
        (({"name": "interactive", "weight": 1.0},), "dict"),
        ((("interactive", 1.0),), "tuple"),
        (("interactive",), "str"),
    ],
)
def test_traffic_class_of_the_wrong_type(classes, got):
    with pytest.raises(ValueError, match=rf"^classes\[0\] must be a TrafficClass \(got {got}\)$"):
        FleetScenario(boards=(GROUP,), classes=classes)


def test_well_typed_groups_pass():
    fleet = FleetScenario(boards=[GROUP], classes=[TrafficClass("interactive")])
    assert fleet.boards == (GROUP,) and fleet.classes == (TrafficClass("interactive"),)
