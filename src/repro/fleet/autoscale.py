"""Reactive autoscaling: power boards up/down against their power profiles.

The controller is deliberately simple — the classic reactive band policy:
every ``interval_s`` of simulated time it computes the cell's windowed slot
utilisation (service seconds committed in the window over powered slot
capacity) and

* powers **up** the first unpowered board in inventory order when the
  window runs hot (``util >`` :data:`HIGH`) — the board draws power
  immediately and starts serving after :data:`BOOT_S` (cold-start penalty);
* powers **down** the last powered board in inventory order when the window
  runs cold (``util <`` :data:`LOW`) and more than :data:`MIN_POWERED`
  boards are up — the board stops accepting work, drains its in-flight
  slots, and its power ledger closes at the drain instant.

Energy is priced per board from its :class:`~repro.platform.device.PowerProfile`
over exactly its powered seconds, so the report shows what the policy
actually bought: cold-start latency traded against idle watts.

The controller is *arrival-clocked*: ticks fire between arrivals in the
cell's single-pass kernel, so a run with no traffic never scales (and runs
stay bit-reproducible — no hidden wall-clock).
"""

from __future__ import annotations

from typing import Dict, List

from .balancer import BoardServer

__all__ = ["HIGH", "LOW", "BOOT_S", "MIN_POWERED", "AutoscaleController"]

#: Power a board up when the windowed utilisation exceeds this...
HIGH = 0.75
#: ...and down when it falls below this (with more than MIN_POWERED up).
LOW = 0.30
#: Boot delay: a powered-up board starts serving this long after the
#: decision (and draws power from the decision instant).
BOOT_S = 5.0
#: Boards per cell that are never powered down.
MIN_POWERED = 1


class AutoscaleController:
    """One cell's reactive power controller, deciding every ``interval_s``."""

    __slots__ = ("boards", "interval_s", "events", "_last_busy")

    def __init__(self, boards: List[BoardServer], interval_s: float) -> None:
        self.boards = boards
        self.interval_s = interval_s
        self.events: List[Dict[str, object]] = []
        self._last_busy = 0.0

    @property
    def powered_count(self) -> int:
        return sum(1 for b in self.boards if b.powered)

    def tick(self, now: float) -> None:
        """One control decision at simulated time ``now``."""

        powered_slots = sum(b.replicas for b in self.boards if b.powered)
        capacity = powered_slots * self.interval_s
        busy = sum(b.busy_seconds for b in self.boards)
        window_busy = busy - self._last_busy
        self._last_busy = busy
        if capacity <= 0:
            return
        util = window_busy / capacity
        if util > HIGH:
            self._power_up(now, util)
        elif util < LOW and self.powered_count > MIN_POWERED:
            self._power_down(now, util)

    def _power_up(self, now: float, util: float) -> None:
        for board in self.boards:  # first unpowered, inventory order
            if not board.powered:
                board.power_up(now, BOOT_S)
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
