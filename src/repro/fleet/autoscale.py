"""Reactive autoscaling: power boards up/down against their power profiles.

The controller is deliberately simple — the classic reactive band policy:
every ``interval_s`` of simulated time it computes the cell's windowed slot
utilisation (service seconds committed in the window over powered slot
capacity) and

* powers **up** the first unpowered board in inventory order when the
  window runs hot (``util > high``) — the board draws power immediately and
  starts serving after ``boot_s`` (cold-start penalty);
* powers **down** the last powered board in inventory order when the window
  runs cold (``util < low``) and more than ``min_powered`` boards are up —
  the board stops accepting work, drains its in-flight slots, and its power
  ledger closes at the drain instant.

Energy is priced per board from its :class:`~repro.platform.device.PowerProfile`
over exactly its powered seconds, so the report shows what the policy
actually bought: cold-start latency traded against idle watts.

The controller is *arrival-clocked*: ticks fire between arrivals in the
cell's single-pass kernel, so a run with no traffic never scales (and runs
stay bit-reproducible — no hidden wall-clock).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .._checks import check_count
from .balancer import BoardServer

__all__ = ["AutoscalePolicy", "AutoscaleController"]


@dataclass(frozen=True)
class AutoscalePolicy:
    """The reactive band policy's knobs."""

    interval_s: float = 60.0
    high: float = 0.75
    low: float = 0.30
    boot_s: float = 5.0
    min_powered: int = 1

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if not 0.0 < self.low < self.high <= 1.0:
            raise ValueError(
                f"bands must satisfy 0 < low < high <= 1 (got low={self.low}, high={self.high})"
            )
        if self.boot_s < 0:
            raise ValueError("boot_s must be non-negative")
        object.__setattr__(self, "min_powered", check_count("min_powered", self.min_powered, 1))


class AutoscaleController:
    """One cell's reactive power controller."""

    __slots__ = ("boards", "policy", "events", "_last_busy")

    def __init__(self, boards: List[BoardServer], policy: AutoscalePolicy) -> None:
        self.boards = boards
        self.policy = policy
        self.events: List[Dict[str, object]] = []
        self._last_busy = 0.0

    @property
    def powered_count(self) -> int:
        return sum(1 for b in self.boards if b.powered)

    def tick(self, now: float) -> None:
        """One control decision at simulated time ``now``."""

        powered_slots = sum(b.replicas for b in self.boards if b.powered)
        capacity = powered_slots * self.policy.interval_s
        busy = sum(b.busy_seconds for b in self.boards)
        window_busy = busy - self._last_busy
        self._last_busy = busy
        if capacity <= 0:
            return
        util = window_busy / capacity
        if util > self.policy.high:
            self._power_up(now, util)
        elif util < self.policy.low and self.powered_count > self.policy.min_powered:
            self._power_down(now, util)

    def _power_up(self, now: float, util: float) -> None:
        for board in self.boards:  # first unpowered, inventory order
            if not board.powered:
                board.power_up(now, self.policy.boot_s)
                self.events.append(
                    {"t": now, "action": "up", "board": board.index, "util": util}
                )
                return

    def _power_down(self, now: float, util: float) -> None:
        for board in reversed(self.boards):  # last powered, inventory order
            if board.powered:
                drained = board.power_down(now)
                self.events.append(
                    {
                        "t": now,
                        "action": "down",
                        "board": board.index,
                        "util": util,
                        "drained_at": drained,
                    }
                )
                return

    def summary(self) -> Dict[str, object]:
        ups = sum(1 for e in self.events if e["action"] == "up")
        downs = sum(1 for e in self.events if e["action"] == "down")
        return {
            "events": len(self.events),
            "power_ups": ups,
            "power_downs": downs,
            "final_powered": self.powered_count,
        }
