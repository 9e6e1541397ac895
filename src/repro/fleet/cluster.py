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
round-trips through ``as_dict``/``from_dict``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from ..api.scenario import Scenario
from ..platform import list_boards
from ..sim.policies import POLICY_NAMES
from ..sim.scenario import SimScenario, check_traffic

__all__ = [
    "ROUTING_NAMES",
    "ADMISSION_NAMES",
    "CLASS_KINDS",
    "FIDELITY_NAMES",
    "BoardGroup",
    "TrafficClass",
    "FleetScenario",
    "canonical_board",
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


def canonical_board(name: str) -> str:
    """Resolve a board name case-insensitively against the registry.

    The registry itself is case-sensitive ("PYNQ-Z2"); fleet specs come from
    command lines where ``pynq-z2:8`` is the natural spelling.
    """

    registered = list_boards()
    by_fold = {b.lower(): b for b in registered}
    hit = by_fold.get(str(name).lower())
    if hit is None:
        available = ", ".join(registered) or "(none)"
        raise ValueError(f"unknown board '{name}'; registered boards: {available}")
    return hit


@dataclass(frozen=True)
class BoardGroup:
    """A homogeneous slice of the fleet inventory: ``count`` boards of one type."""

    board: str
    count: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "board", canonical_board(self.board))
        if not isinstance(self.count, int) or self.count < 1:
            raise ValueError(f"board count must be a positive integer (got {self.count!r})")

    def as_dict(self) -> Dict[str, object]:
        return {"board": self.board, "count": self.count}


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

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "weight": self.weight,
            "kind": self.kind,
            "slo_s": self.slo_s,
            "model": self.model,
            "depth": self.depth,
        }


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
            b if isinstance(b, BoardGroup) else BoardGroup(**dict(b)) for b in self.boards
        )
        object.__setattr__(self, "boards", boards)
        if not self.classes:
            raise ValueError("a fleet needs at least one traffic class")
        classes = tuple(
            c if isinstance(c, TrafficClass) else TrafficClass(**dict(c)) for c in self.classes
        )
        object.__setattr__(self, "classes", classes)
        names = [c.name for c in classes]
        if len(set(names)) != len(names):
            raise ValueError(f"traffic class names must be unique (got {names})")
        check_traffic(self)

        if not isinstance(self.replicas, int) or self.replicas < 0:
            raise ValueError("replicas must be a non-negative integer (0 = per-board auto)")
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
        if not isinstance(self.min_powered, int) or self.min_powered < 1:
            raise ValueError("min_powered must be a positive integer")

        if not isinstance(self.cells, int) or self.cells < 1:
            raise ValueError("cells must be a positive integer")
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
        if self.policy not in POLICY_NAMES:
            raise ValueError(f"unknown policy '{self.policy}'; expected one of {POLICY_NAMES}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be a positive integer")
        if not isinstance(self.ps_cores, int) or self.ps_cores < 0:
            raise ValueError("ps_cores must be a non-negative integer (0 = the board's cores)")
        if self.dma_channels < 1:
            raise ValueError("dma_channels must be a positive integer")
        if not isinstance(self.exact, bool):
            raise ValueError("exact must be a boolean")

        # Fail fast on invalid design points: every (class, board) pair must
        # be a constructible Scenario (unknown models/depths/boards surface
        # here, not deep inside a worker process).
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

        return Scenario(
            model=(cls.model if cls is not None and cls.model is not None else self.model),
            depth=(cls.depth if cls is not None and cls.depth is not None else self.depth),
            n_units=self.n_units,
            word_length=self.word_length,
            fraction_bits=self.fraction_bits,
            solver=self.solver,
            board=board if board is not None else self.boards[0].board,
        )

    def board_sim_scenario(
        self, board: str, trace: Sequence[float], replicas: int,
        slo_s: Optional[float] = None,
    ) -> SimScenario:
        """The per-board :class:`SimScenario` of the event-fidelity path."""

        return SimScenario(
            model=self.model,
            depth=self.depth,
            n_units=self.n_units,
            word_length=self.word_length,
            fraction_bits=self.fraction_bits,
            solver=self.solver,
            board=board,
            arrival="trace",
            trace=tuple(trace),
            replicas=replicas,
            policy=self.policy,
            batch_size=self.batch_size,
            seed=self.seed,
            ps_cores=self.ps_cores,
            dma_channels=self.dma_channels,
            exact=self.exact,
            slo_s=slo_s,
        )

    def replace(self, **changes: object) -> "FleetScenario":
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "boards": [g.as_dict() for g in self.boards],
            "classes": [c.as_dict() for c in self.classes],
        }
        for f in dataclasses.fields(self):
            if f.name in ("boards", "classes"):
                continue
            value = getattr(self, f.name)
            if f.name == "trace" and value is not None:
                value = list(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FleetScenario":
        data = dict(data)
        data["boards"] = tuple(BoardGroup(**dict(g)) for g in data.get("boards", ()))
        data["classes"] = tuple(TrafficClass(**dict(c)) for c in data.get("classes", ()))
        if data.get("trace") is not None:
            data["trace"] = tuple(data["trace"])
        return cls(**data)


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
