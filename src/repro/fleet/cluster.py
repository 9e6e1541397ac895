"""The fleet design space: :class:`FleetScenario` and its building blocks.

A :class:`~repro.sim.scenario.SimScenario` serves traffic on *one* board;
a :class:`FleetScenario` describes a heterogeneous *cluster* drawn from the
:mod:`repro.platform` registry behind a load-balancer tier:

* :class:`BoardGroup` — "8× PYNQ-Z2" (the inventory, in deterministic
  order);
* :class:`TrafficClass` — a named slice of the offered traffic with a
  weight, a kind (``latency`` or ``batch``) and optionally its own SLO;
* the balancer knobs — routing policy, SLO-aware admission control,
  reactive autoscaling;
* ``cells`` — the shared-nothing partitioning unit: the inventory is dealt
  round-robin into ``cells`` independent sub-clusters, each serving
  ``1/cells`` of the traffic with its own RNG stream.  Cells (not shards!)
  define the results; shards only decide how many worker processes execute
  them, so any ``--shards`` value yields bit-identical merged metrics;
* ``fidelity`` — ``fast`` (the analytic balancer kernel) or ``event``
  (each cell one transaction-level simulation of all its boards, routed
  on live board state; any class mix, but no autoscaling).

Everything follows the frozen/validated contract of the rest of the API:
construction fails fast with a helpful ``ValueError``, and ``as_dict``
serialises the scenario (board groups and traffic classes as nested dicts).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import ClassVar, Dict, Optional, Sequence, Tuple, Union

from ..api.scenario import (
    Scenario,
    check_board,
    check_count,
    field_dict,
    shared_fields,
)
from ..sim.scenario import check_traffic

__all__ = [
    "ROUTING_NAMES",
    "ADMISSION_NAMES",
    "CLASS_KINDS",
    "FIDELITY_NAMES",
    "BoardGroup",
    "TrafficClass",
    "FleetScenario",
    "parse_board_groups",
    "parse_traffic_classes",
]

#: Balancer routing policies.
ROUTING_NAMES: Tuple[str, ...] = ("least_loaded", "round_robin", "weighted")

#: Admission-control policies.
ADMISSION_NAMES: Tuple[str, ...] = ("none", "slo")

#: Traffic-class kinds (they route differently — see ``fleet.balancer``).
CLASS_KINDS: Tuple[str, ...] = ("latency", "batch")

#: Serving fidelities: ``fast`` is the analytic multi-server kernel (one
#: event per request — million-request fleets in seconds); ``event`` serves
#: each cell as one transaction-level simulation of every board, routed on
#: live board state (the identity-test and deep-dive path).
FIDELITY_NAMES: Tuple[str, ...] = ("fast", "event")


@dataclass(frozen=True)
class BoardGroup:
    """A homogeneous slice of the fleet inventory: ``count`` boards of one type."""

    board: str
    count: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "board", check_board(self.board).name)
        object.__setattr__(self, "count", check_count("board count", self.count, 1))


@dataclass(frozen=True)
class TrafficClass:
    """One named slice of the offered traffic.

    ``kind`` drives per-class routing and admission: ``latency`` traffic
    chases the shortest predicted start (and is subject to SLO admission
    control), ``batch`` traffic packs the most energy-efficient powered
    boards and is never rejected.  Every class is served by the fleet's one
    architecture.
    """

    name: str
    weight: float = 1.0
    kind: str = "latency"
    slo_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not str(self.name):
            raise ValueError("traffic class name must be non-empty")
        if not 0 < self.weight < math.inf:
            raise ValueError(
                f"traffic class weight must be positive and finite (got {self.weight!r})"
            )
        if self.kind not in CLASS_KINDS:
            raise ValueError(f"unknown traffic kind '{self.kind}'; expected one of {CLASS_KINDS}")
        if self.slo_s is not None and not 0 < self.slo_s < math.inf:
            raise ValueError(f"slo_s must be positive and finite, or None (got {self.slo_s!r})")


@dataclass(frozen=True)
class FleetScenario:
    """A heterogeneous multi-board cluster under classed traffic."""

    #: Requests a rate-driven fleet offers when no stop condition is set
    #: (see :func:`repro.sim.scenario.request_cap`).
    DEFAULT_REQUESTS: ClassVar[int] = 1000

    #: The inventory, in deterministic order (autoscaling powers boards up in
    #: this order and down in reverse).
    boards: Tuple[BoardGroup, ...] = (BoardGroup("PYNQ-Z2", 4),)
    #: The offered traffic, split by weight across named classes.
    classes: Tuple[TrafficClass, ...] = (TrafficClass("interactive"),)

    # -- served architecture (every class, every board) --------------------
    model: str = "rODENet-3"
    depth: int = 56
    n_units: int = 16
    word_length: int = 32
    fraction_bits: int = 20

    # -- offered traffic ----------------------------------------------------
    arrival: str = "poisson"
    arrival_rate_hz: float = 10.0
    n_requests: Optional[int] = None
    duration_s: Optional[float] = None
    trace: Optional[Tuple[float, ...]] = None

    # -- serving system -----------------------------------------------------
    #: PL replicas per board; 0 sizes each board from its own fabric budget.
    replicas: int = 0
    #: Balancer routing policy (see ``fleet.balancer``).
    routing: str = "least_loaded"
    #: Admission control: "slo" predicts each latency-class request's sojourn
    #: at its routed board and rejects it when the prediction breaks the SLO;
    #: "none" admits everything.
    admission: str = "slo"
    #: Default SLO for latency classes without their own (seconds).  ``None``
    #: resolves to twice the class's no-load service time on the fastest
    #: board of the fleet (the knee convention of ``examples/serving_study.py``).
    slo_s: Optional[float] = None

    # -- autoscaling (the band policy of ``fleet.autoscale``) ----------------
    autoscale: bool = False
    autoscale_interval_s: float = 60.0

    # -- partitioning / measurement ----------------------------------------
    #: Shared-nothing cells the inventory and traffic are dealt into.  Part
    #: of the scenario (results depend on it); shard count is not.
    cells: int = 1
    seed: int = 0
    fidelity: str = "fast"

    def __post_init__(self) -> None:
        if not self.boards:
            raise ValueError("a fleet needs at least one board group")
        object.__setattr__(self, "boards", tuple(self.boards))
        if not self.classes:
            raise ValueError("a fleet needs at least one traffic class")
        classes = tuple(self.classes)
        object.__setattr__(self, "classes", classes)
        for field, kind in (("boards", BoardGroup), ("classes", TrafficClass)):
            for i, item in enumerate(getattr(self, field)):
                if not isinstance(item, kind):
                    raise ValueError(f"{field}[{i}] must be a {kind.__name__} "
                                     f"(got {type(item).__name__})")
        names = [c.name for c in classes]
        if len(set(names)) != len(names):
            raise ValueError(f"traffic class names must be unique (got {names})")
        check_traffic(self)

        object.__setattr__(
            self, "replicas", check_count("replicas", self.replicas, 0, " (0 = per-board auto)")
        )
        if self.routing not in ROUTING_NAMES:
            raise ValueError(f"unknown routing '{self.routing}'; expected one of {ROUTING_NAMES}")
        if self.admission not in ADMISSION_NAMES:
            raise ValueError(
                f"unknown admission '{self.admission}'; expected one of {ADMISSION_NAMES}"
            )

        if not 0 < self.autoscale_interval_s < math.inf:
            raise ValueError(
                "autoscale_interval_s must be positive and finite "
                f"(got {self.autoscale_interval_s!r})"
            )
        object.__setattr__(self, "cells", check_count("cells", self.cells, 1))
        if self.cells > self.total_boards:
            raise ValueError(
                f"cells={self.cells} exceeds the {self.total_boards}-board inventory "
                "(every cell needs at least one board)"
            )
        if self.arrival == "trace" and self.cells != 1:
            raise ValueError(
                "trace arrivals require cells=1 (a trace is one stream; splitting "
                "it across cells would change which cell serves which request)"
            )
        if self.fidelity not in FIDELITY_NAMES:
            raise ValueError(
                f"unknown fidelity '{self.fidelity}'; expected one of {FIDELITY_NAMES}"
            )
        if self.fidelity == "event" and self.autoscale:
            raise ValueError(
                "autoscale requires fidelity='fast' (the event-fidelity cell "
                "simulates every board powered for the whole run: its simulator "
                "has no power states)"
            )

        # Fail fast on invalid design points: every board must run the
        # design as a constructible Scenario (unknown models/depths/boards
        # surface here, not deep inside a worker process).  The fleet keeps
        # the integer design knobs as the Scenario stores them.
        design = self.design_point()
        for name in ("depth", "n_units", "word_length", "fraction_bits"):
            object.__setattr__(self, name, getattr(design, name))
        for group in self.boards:
            self.design_point(group.board)

    # -- views -------------------------------------------------------------------------

    @property
    def total_boards(self) -> int:
        return sum(g.count for g in self.boards)

    def expanded_inventory(self) -> Tuple[Tuple[int, str], ...]:
        """The inventory as ``(group_index, board_name)`` units, in order."""

        units = []
        for gi, group in enumerate(self.boards):
            units.extend((gi, group.board) for _ in range(group.count))
        return tuple(units)

    def cell_inventory(self, cell: int) -> Tuple[Tuple[int, int, str], ...]:
        """The units dealt (round-robin) to one cell: ``(global_index, group_index, board)``."""

        if not 0 <= cell < self.cells:
            raise ValueError(f"cell must be in [0, {self.cells}) (got {cell})")
        return tuple(
            (i, gi, name)
            for i, (gi, name) in enumerate(self.expanded_inventory())
            if i % self.cells == cell
        )

    def design_point(self, board: Optional[str] = None) -> Scenario:
        """The plain scenario every request executes on a given board."""

        board = board if board is not None else self.boards[0].board
        return Scenario(board=board, **shared_fields(self, Scenario))

    def replace(self, **changes: object) -> "FleetScenario":
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> Dict[str, object]:
        return field_dict(self)


# -- CLI-facing parsers ------------------------------------------------------------------


def parse_board_groups(spec: Union[str, Sequence[str]]) -> Tuple[BoardGroup, ...]:
    """Parse ``"pynq-z2:8,zcu104:4"`` (or a pre-split list) into board groups.

    Board names are matched case-insensitively against the registry; a bare
    name means one board.
    """

    entries = spec.split(",") if isinstance(spec, str) else [e for s in spec for e in s.split(",")]
    groups = []
    for entry in entries:
        entry = entry.strip()
        if not entry:
            continue
        name, _, count = entry.partition(":")
        if count:
            try:
                n = int(count)
            except ValueError:
                raise ValueError(
                    f"bad board spec '{entry}': expected NAME or NAME:COUNT"
                ) from None
        else:
            n = 1
        groups.append(BoardGroup(board=name, count=n))
    if not groups:
        raise ValueError("empty board spec; expected e.g. 'pynq-z2:8,zcu104:4'")
    return tuple(groups)


def parse_traffic_classes(spec: Union[str, Sequence[str]]) -> Tuple[TrafficClass, ...]:
    """Parse ``"interactive:0.8:latency:50ms,nightly:0.2:batch"`` into classes.

    Each entry is ``NAME[:WEIGHT[:KIND[:SLO]]]``; the SLO accepts a plain
    number of seconds or an ``ms`` suffix.
    """

    entries = spec.split(",") if isinstance(spec, str) else [e for s in spec for e in s.split(",")]
    classes = []
    for entry in entries:
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        if len(parts) > 4:
            raise ValueError(f"bad class spec '{entry}': expected NAME[:WEIGHT[:KIND[:SLO]]]")
        name = parts[0]
        try:
            weight = float(parts[1]) if len(parts) > 1 and parts[1] else 1.0
        except ValueError:
            raise ValueError(f"bad class spec '{entry}': weight '{parts[1]}' is not a number") from None
        kind = parts[2] if len(parts) > 2 and parts[2] else "latency"
        slo_s: Optional[float] = None
        if len(parts) > 3 and parts[3]:
            raw = parts[3].strip().lower()
            try:
                slo_s = float(raw[:-2]) / 1e3 if raw.endswith("ms") else float(raw)
            except ValueError:
                raise ValueError(f"bad class spec '{entry}': SLO '{parts[3]}' is not a time") from None
        classes.append(TrafficClass(name=name, weight=weight, kind=kind, slo_s=slo_s))
    if not classes:
        raise ValueError("empty class spec; expected e.g. 'interactive:0.8:latency:50ms'")
    return tuple(classes)
