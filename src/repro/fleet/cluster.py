"""The fleet design space: :class:`FleetScenario` and its building blocks.

A :class:`~repro.sim.scenario.SimScenario` serves traffic on *one* board;
a :class:`FleetScenario` describes a heterogeneous *cluster* drawn from the
:mod:`repro.platform` registry behind a load-balancer tier:

* :class:`BoardGroup` — "8× PYNQ-Z2" (the inventory, in deterministic
  order);
* :class:`TrafficClass` — a named slice of the offered traffic with a
  weight, a kind (``latency`` or ``batch``) and optionally its own SLO and
  served architecture;
* the balancer knobs — routing policy, SLO-aware admission control,
  reactive autoscaling bands;
* ``cells`` — the shared-nothing partitioning unit: the inventory is dealt
  round-robin into ``cells`` independent sub-clusters, each serving
  ``1/cells`` of the traffic with its own RNG stream.  Cells (not shards!)
  define the results; shards only decide how many worker processes execute
  them, so any ``--shards`` value yields bit-identical merged metrics.

Everything follows the frozen/validated contract of the rest of the API:
construction fails fast with a helpful ``ValueError``, and the scenario
round-trips through ``as_dict``/``from_dict`` (board groups and traffic
classes as nested dicts).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from ..api.scenario import (
    Scenario,
    check_board,
    check_count,
    field_dict,
    from_field_dict,
    shared_fields,
)
from ..sim.scenario import SimScenario, check_serving, check_traffic

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
#: event per request — million-request fleets in seconds); ``event`` routes
#: each board's assigned trace through the full transaction-level
#: :func:`repro.sim.simulate` (the identity-test and deep-dive path).
FIDELITY_NAMES: Tuple[str, ...] = ("fast", "event")

#: Fleet traffic knobs a board's event-fidelity SimScenario does not inherit:
#: it replays the trace the balancer assigned it, whole.
_FLEET_TRAFFIC: Tuple[str, ...] = ("arrival_rate_hz", "n_requests", "duration_s")


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
    boards and is never rejected.  ``model``/``depth`` optionally override
    the served architecture (``fidelity="fast"`` only).
    """

    name: str
    weight: float = 1.0
    kind: str = "latency"
    slo_s: Optional[float] = None
    model: Optional[str] = None
    depth: Optional[int] = None

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

    #: The inventory, in deterministic order (autoscaling powers boards up in
    #: this order and down in reverse).
    boards: Tuple[BoardGroup, ...] = (BoardGroup("PYNQ-Z2", 4),)
    #: The offered traffic, split by weight across named classes.
    classes: Tuple[TrafficClass, ...] = (TrafficClass("interactive"),)

    # -- served architecture (per-class overrides via TrafficClass) ---------
    model: str = "rODENet-3"
    depth: int = 56
    n_units: int = 16
    word_length: int = 32
    fraction_bits: int = 20
    solver: str = "euler"

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

    # -- autoscaling --------------------------------------------------------
    autoscale: bool = False
    autoscale_interval_s: float = 60.0
    #: Power a board up when windowed fleet utilisation exceeds this...
    autoscale_high: float = 0.75
    #: ...and down when it falls below this (with more than min_powered up).
    autoscale_low: float = 0.30
    #: Boot delay: a powered-up board starts serving this long after the
    #: decision (and draws power from the decision instant).
    boot_s: float = 5.0
    #: Boards per cell that are never powered down.
    min_powered: int = 1

    # -- partitioning / measurement ----------------------------------------
    #: Shared-nothing cells the inventory and traffic are dealt into.  Part
    #: of the scenario (results depend on it); shard count is not.
    cells: int = 1
    seed: int = 0
    fidelity: str = "fast"
    #: Keep exact per-request latencies (never spill the sketches).
    exact: bool = False

    # -- event-fidelity board-level knobs (passed through to repro.sim) -----
    policy: str = "fifo"
    batch_size: int = 4
    ps_cores: int = 0
    dma_channels: int = 1

    def __post_init__(self) -> None:
        if not self.boards:
            raise ValueError("a fleet needs at least one board group")
        boards = tuple(
            b if isinstance(b, BoardGroup) else from_field_dict(BoardGroup, b)
            for b in self.boards
        )
        object.__setattr__(self, "boards", boards)
        if not self.classes:
            raise ValueError("a fleet needs at least one traffic class")
        classes = tuple(
            c if isinstance(c, TrafficClass) else from_field_dict(TrafficClass, c)
            for c in self.classes
        )
        object.__setattr__(self, "classes", classes)
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
        if not 0.0 < self.autoscale_low < self.autoscale_high <= 1.0:
            raise ValueError(
                "autoscale bands must satisfy 0 < low < high <= 1 "
                f"(got low={self.autoscale_low}, high={self.autoscale_high})"
            )
        if self.boot_s < 0:
            raise ValueError("boot_s must be non-negative")
        for name in ("min_powered", "cells"):
            object.__setattr__(self, name, check_count(name, getattr(self, name), 1))
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
        if self.fidelity == "event":
            if self.autoscale:
                raise ValueError(
                    "autoscale requires fidelity='fast' (the event-fidelity path "
                    "replays each board's assigned trace through repro.sim, which "
                    "has no mid-run power state)"
                )
            if len(classes) != 1:
                raise ValueError(
                    "fidelity='event' requires exactly one traffic class (per-class "
                    "latency cannot be recovered from a board-level SimReport)"
                )
            if any(c.model is not None or c.depth is not None for c in classes):
                raise ValueError(
                    "per-class model/depth overrides require fidelity='fast' "
                    "(event-fidelity boards serve one physical datapath)"
                )
        check_serving(self)

        # Fail fast on invalid design points: every (class, board) pair must
        # be a constructible Scenario (unknown models/depths/boards surface
        # here, not deep inside a worker process).  The fleet keeps the
        # integer design knobs as the Scenario stores them.
        design = self.design_point()
        for name in ("depth", "n_units", "word_length", "fraction_bits"):
            object.__setattr__(self, name, getattr(design, name))
        for group in boards:
            for cls in classes:
                self.design_point(cls, group.board)

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

    def design_point(self, cls: Optional[TrafficClass] = None, board: Optional[str] = None) -> Scenario:
        """The plain scenario a class's requests execute on a given board."""

        knobs = shared_fields(self, Scenario)
        for name in ("model", "depth"):
            if getattr(cls, name, None) is not None:
                knobs[name] = getattr(cls, name)
        return Scenario(board=board if board is not None else self.boards[0].board, **knobs)

    def board_sim_scenario(
        self, board: str, trace: Sequence[float], replicas: int,
        slo_s: Optional[float] = None,
    ) -> SimScenario:
        """The per-board :class:`SimScenario` of the event-fidelity path."""

        knobs = shared_fields(self, SimScenario, exclude=_FLEET_TRAFFIC)
        knobs.update(arrival="trace", trace=tuple(trace), replicas=replicas, slo_s=slo_s)
        return SimScenario(board=board, **knobs)

    def replace(self, **changes: object) -> "FleetScenario":
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> Dict[str, object]:
        return field_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FleetScenario":
        return from_field_dict(cls, data)


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
