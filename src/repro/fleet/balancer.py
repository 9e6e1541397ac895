"""The load-balancer tier: per-board analytic serving state and routing.

The fast fleet kernel does not replay every DMA burst — that is what
``fidelity="event"`` is for.  Each board is a multi-server station
(:class:`BoardServer`): ``replicas`` slots, each serving one request at a
time at the board's *analytic* per-class service time (the same
``build_service_plan().total_seconds`` the transaction-level simulator is
differentially pinned to).  A request costs one heap operation, so
million-request day traces run in seconds.

Routing is per-class (the tentpole requirement):

* **latency** traffic chases the shortest predicted start across powered
  boards (ties break on inventory order), and — under ``admission="slo"`` —
  is rejected up front when even that board's predicted sojourn breaks the
  class SLO (fail fast beats queueing a request that will blow its budget);
* **batch** traffic packs the most energy-efficient powered board (lowest
  joules per request, priced from the board's :class:`PowerProfile`) and is
  never rejected; it spills to least-loaded only when the efficient board's
  backlog exceeds ``BATCH_SPILL_FACTOR`` service times, so bulk work cannot
  starve behind itself.

``round_robin`` and ``weighted`` (capacity-proportional, driven by
presampled uniforms so runs stay deterministic) are the classic baselines.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.metrics import energy_section, ps_energy_j

__all__ = ["BATCH_SPILL_FACTOR", "BoardServer", "Balancer"]

#: A batch request spills off the cheapest board when its backlog exceeds
#: this many of its own service times.
BATCH_SPILL_FACTOR = 10.0


class BoardServer:
    """Analytic serving state of one physical board in a cell."""

    __slots__ = (
        "index",
        "group",
        "name",
        "replicas",
        "svc_s",
        "ps_s",
        "free",
        "powered",
        "available_from",
        "powered_since",
        "powered_seconds",
        "busy_seconds",
        "ps_busy_seconds",
        "served",
        "pl_w",
        "ps_active_w",
        "ps_idle_w",
        "ps_cores",
        "energy_per_request",
        "last_finish",
    )

    def __init__(
        self,
        index: int,
        group: int,
        name: str,
        replicas: int,
        svc_s: Sequence[float],
        ps_s: Sequence[float],
        pl_w: float,
        ps_active_w: float,
        ps_idle_w: float,
        ps_cores: int,
    ) -> None:
        self.index = index
        self.group = group
        self.name = name
        self.replicas = replicas
        self.svc_s = list(svc_s)
        self.ps_s = list(ps_s)
        self.free = [0.0] * replicas  # a heap of per-slot next-free instants
        self.powered = True
        self.available_from = 0.0
        self.powered_since = 0.0
        self.powered_seconds = 0.0
        self.busy_seconds = 0.0
        self.ps_busy_seconds = 0.0
        self.served = [0] * len(self.svc_s)
        self.pl_w = pl_w
        self.ps_active_w = ps_active_w
        self.ps_idle_w = ps_idle_w
        self.ps_cores = ps_cores
        # The batch-routing cost: joules one request costs on this board,
        # charging the whole board's PL draw plus one active PS share for
        # its service time (a packing heuristic, not an energy report).
        self.energy_per_request = [
            s * (pl_w + ps_active_w) for s in self.svc_s
        ]
        self.last_finish = 0.0

    # -- serving -----------------------------------------------------------------------

    def predicted_start(self, t: float) -> float:
        """When a request arriving at ``t`` would begin service here."""

        earliest = self.free[0]
        if earliest < t:
            earliest = t
        if earliest < self.available_from:
            earliest = self.available_from
        return earliest

    def assign(self, t: float, cls: int) -> Tuple[float, float]:
        """Commit a class-``cls`` request arriving at ``t``; return (start, finish)."""

        start = self.predicted_start(t)
        service = self.svc_s[cls]
        finish = start + service
        heapq.heapreplace(self.free, finish)
        self.busy_seconds += service
        self.ps_busy_seconds += self.ps_s[cls]
        self.served[cls] += 1
        if finish > self.last_finish:
            self.last_finish = finish
        return start, finish

    # -- power state -------------------------------------------------------------------

    def power_down(self, t: float) -> float:
        """Stop accepting work; drain in-flight slots, then cut power.

        Returns the drain instant (when the last busy slot frees and the
        board actually stops drawing power).
        """

        drain_end = max(t, max(self.free))
        self.powered = False
        self.powered_seconds += drain_end - self.powered_since
        self.available_from = float("inf")
        if drain_end > self.last_finish:
            self.last_finish = drain_end
        return drain_end

    def power_up(self, t: float, boot_s: float) -> None:
        """Start drawing power at ``t``; serve from ``t + boot_s``."""

        self.powered = True
        self.powered_since = t
        self.available_from = t + boot_s
        self.free = [self.available_from] * self.replicas

    def finalize(self, horizon: float) -> None:
        """Close the power ledger at the end of the run."""

        if self.powered:
            self.powered_seconds += max(horizon, self.powered_since) - self.powered_since

    def energy_j(self) -> Dict[str, Optional[float]]:
        """This board's energy section over its powered time.

        The fast model has no per-core occupancy trace; the PS is priced by
        its mean core occupancy (software seconds over ``ps_cores``, as in
        ``repro.sim``), capped at every core busy for the powered time.
        """

        ps_busy = min(self.ps_busy_seconds, self.ps_cores * self.powered_seconds)
        ps_j = ps_energy_j(
            self.ps_active_w, self.ps_idle_w, ps_busy, self.ps_cores, self.powered_seconds
        )
        pl_j = self.pl_w * self.powered_seconds
        return energy_section(ps_j, pl_j, sum(self.served), self.powered_seconds)

    def utilization(self) -> float:
        """Mean slot occupancy over powered time (NaN when never powered)."""

        denom = self.replicas * self.powered_seconds
        return self.busy_seconds / denom if denom > 0 else float("nan")


class Balancer:
    """Per-class routing over one cell's boards."""

    __slots__ = ("boards", "routing", "_rr")

    def __init__(self, boards: List[BoardServer], routing: str) -> None:
        self.boards = boards
        self.routing = routing
        self._rr = 0

    def route(
        self, t: float, cls: int, kind: str, u: Optional[float] = None
    ) -> Optional[BoardServer]:
        """Pick the serving board for one request (``None`` if none is powered)."""

        if self.routing == "round_robin":
            return self._round_robin()
        if self.routing == "weighted":
            return self._weighted(cls, u)
        if kind == "batch":
            return self._cheapest(t, cls)
        return self._least_loaded(t)

    def _least_loaded(self, t: float) -> Optional[BoardServer]:
        best = None
        best_start = float("inf")
        for board in self.boards:
            if not board.powered:
                continue
            start = board.predicted_start(t)
            if start < best_start:
                best, best_start = board, start
        return best

    def _cheapest(self, t: float, cls: int) -> Optional[BoardServer]:
        best = None
        best_cost = float("inf")
        for board in self.boards:
            if not board.powered:
                continue
            cost = board.energy_per_request[cls]
            if cost < best_cost:
                best, best_cost = board, cost
        if best is None:
            return None
        # Spill: bulk work must not starve behind itself on the one
        # efficient board while the rest of the fleet idles.
        wait = best.predicted_start(t) - t
        if wait > BATCH_SPILL_FACTOR * best.svc_s[cls]:
            return self._least_loaded(t)
        return best

    def _round_robin(self) -> Optional[BoardServer]:
        n = len(self.boards)
        for probe in range(n):
            board = self.boards[(self._rr + probe) % n]
            if board.powered:
                self._rr = (self._rr + probe + 1) % n
                return board
        return None

    def _weighted(self, cls: int, u: Optional[float]) -> Optional[BoardServer]:
        """Capacity-proportional choice: weight = replicas / service time."""

        weights = []
        candidates = []
        for board in self.boards:
            if not board.powered:
                continue
            candidates.append(board)
            weights.append(board.replicas / board.svc_s[cls])
        if not candidates:
            return None
        if u is None:
            u = 0.0
        total = sum(weights)
        threshold = u * total
        acc = 0.0
        for board, w in zip(candidates, weights):
            acc += w
            if threshold < acc:
                return board
        return candidates[-1]
