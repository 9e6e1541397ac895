"""The load-balancer tier: per-board analytic serving state and routing.

The fast fleet kernel does not replay every DMA burst — that is what
``fidelity="event"`` is for.  Each board is a multi-server station
(:class:`BoardServer`): ``replicas`` slots, each serving one request at a
time at the board's *analytic* service time (the same
``build_service_plan().total_seconds`` the transaction-level simulator is
differentially pinned to).  A request costs one routing decision over a
cell's B boards plus one slot-heap commit, so million-request day traces
run in seconds.

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
Weighted routing keeps the cumulative weights of the powered boards and
bisects them, so a request costs O(log B); the weights are rebuilt only
when the powered set changes, so every power change goes through
:meth:`Balancer.power_up` / :meth:`Balancer.power_down`.

Least-loaded routing scans the boards' ``ready_at`` keys in inventory
order and stops at the first board that is ready at ``t``; otherwise the
earliest key wins.  Both fidelities route through the one
:class:`Balancer`: an event-fidelity cell writes each board's live
predicted start into ``ready_at`` at every arrival instant.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

from ..sim.metrics import energy_section, ps_energy_j

__all__ = ["BATCH_SPILL_FACTOR", "BoardServer", "Balancer"]

#: A batch request spills off the cheapest board when its backlog exceeds
#: this many of its own service times.
BATCH_SPILL_FACTOR = 10.0


class BoardServer:
    """Analytic serving state of one physical board in a cell.

    ``ready_at`` is the balancer's least-loaded key: when the first slot
    frees (a request arriving at ``t`` starts at the later of the two).  It
    is ``inf`` exactly when the board is unpowered (:meth:`power_down`
    writes ``inf``, :meth:`power_up` and :meth:`assign` a finite instant),
    so the balancer's scan reads this one slot and never ``powered``.  An
    event-fidelity cell writes each board's live :meth:`predicted_start`
    into it at every arrival instant; its boards are always powered
    (autoscale is rejected at event fidelity), and autoscaling there would
    have to write ``inf`` for a powered-down board.
    """

    __slots__ = (
        "index",
        "group",
        "name",
        "replicas",
        "svc_s",
        "ps_s",
        "free",
        "powered",
        "ready_at",
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
        svc_s: float,
        ps_s: float,
        pl_w: float,
        ps_active_w: float,
        ps_idle_w: float,
        ps_cores: int,
    ) -> None:
        self.index = index
        self.group = group
        self.name = name
        self.replicas = replicas
        self.svc_s = svc_s
        self.ps_s = ps_s
        self.free = [0.0] * replicas  # a heap of per-slot next-free instants
        self.powered = True
        self.ready_at = 0.0  # the first slot to free (see the class docstring)
        self.powered_since = 0.0
        self.powered_seconds = 0.0
        self.busy_seconds = 0.0
        self.ps_busy_seconds = 0.0
        self.served = 0
        self.pl_w = pl_w
        self.ps_active_w = ps_active_w
        self.ps_idle_w = ps_idle_w
        self.ps_cores = ps_cores
        # The batch-routing cost: joules one request costs on this board,
        # charging the whole board's PL draw plus one active PS share for
        # its service time (a packing heuristic, not an energy report).
        self.energy_per_request = svc_s * (pl_w + ps_active_w)
        self.last_finish = 0.0

    # -- serving -----------------------------------------------------------------------

    def predicted_start(self, t: float) -> float:
        """When a request arriving at ``t`` would begin service here."""

        ready_at = self.ready_at
        return ready_at if ready_at > t else t

    def assign(self, t: float) -> Tuple[float, float]:
        """Commit a request arriving at ``t``; return (start, finish)."""

        start = self.predicted_start(t)
        service = self.svc_s
        finish = start + service
        free = self.free
        heapq.heapreplace(free, finish)
        if self.powered:
            self.ready_at = free[0]
        self.busy_seconds += service
        self.ps_busy_seconds += self.ps_s
        self.served += 1
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
        self.ready_at = math.inf
        if drain_end > self.last_finish:
            self.last_finish = drain_end
        return drain_end

    def power_up(self, t: float, boot_s: float) -> None:
        """Start drawing power at ``t``; serve from ``t + boot_s``."""

        self.powered = True
        self.powered_since = t
        self.ready_at = t + boot_s
        self.free = [self.ready_at] * self.replicas

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
        return energy_section(ps_j, pl_j, self.served, self.powered_seconds)


class Balancer:
    """Per-class routing over one cell's boards."""

    __slots__ = ("boards", "routing", "_rr", "_by_energy", "_weights")

    def __init__(self, boards: List[BoardServer], routing: str) -> None:
        self.boards = boards
        self.routing = routing
        self._rr = 0
        # Batch routing's order: cheapest joules per request first, ties on
        # inventory order (the sort is stable).
        self._by_energy = sorted(boards, key=lambda b: b.energy_per_request)
        self._weights: Optional[Tuple[List[BoardServer], List[float], float]] = None

    def route(self, t: float, kind: str, u: Optional[float] = None) -> Optional[BoardServer]:
        """Pick the serving board for one request (``None`` if none is powered)."""

        if self.routing == "round_robin":
            return self._round_robin()
        if self.routing == "weighted":
            return self._weighted(u)
        if kind == "batch":
            return self._cheapest(t)
        return self._least_loaded(t)

    def power_up(self, board: BoardServer, t: float, boot_s: float) -> None:
        """Power ``board`` up at ``t`` (see :meth:`BoardServer.power_up`);
        the powered set grows, so the weighted table is rebuilt on its next
        use."""

        self._weights = None
        board.power_up(t, boot_s)

    def power_down(self, board: BoardServer, t: float) -> float:
        """Power ``board`` down at ``t``; return its drain instant (see
        :meth:`BoardServer.power_down`).  The powered set shrinks, so the
        weighted table is rebuilt on its next use."""

        self._weights = None
        return board.power_down(t)

    def _least_loaded(self, t: float) -> Optional[BoardServer]:
        """The first board in inventory order that is ready at ``t``, else
        the earliest ``ready_at`` (the lowest position on ties); ``None``
        when every key is ``inf`` (no board powered)."""

        best: Optional[BoardServer] = None
        best_key = math.inf
        for board in self.boards:
            key = board.ready_at
            if key <= t:
                return board
            if key < best_key:
                best, best_key = board, key
        return best

    def _cheapest(self, t: float) -> Optional[BoardServer]:
        for best in self._by_energy:
            if best.powered:
                break
        else:
            return None
        # Spill: bulk work must not starve behind itself on the one
        # efficient board while the rest of the fleet idles.
        wait = best.predicted_start(t) - t
        if wait > BATCH_SPILL_FACTOR * best.svc_s:
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

    def _weighted(self, u: Optional[float]) -> Optional[BoardServer]:
        """Capacity-proportional choice: weight = replicas / service time.

        The first powered board (inventory order) whose running sum of
        weights exceeds ``u`` times ``sum(weights)``: the sums a per-request
        scan would add up, so the choice is bit-identical to one.
        """

        if self._weights is None:
            candidates = [b for b in self.boards if b.powered]
            weights = [b.replicas / b.svc_s for b in candidates]
            self._weights = (candidates, list(accumulate(weights)), sum(weights))
        candidates, cumulative, total = self._weights
        if not candidates:
            return None
        pick = bisect_right(cumulative, (0.0 if u is None else u) * total)
        return candidates[min(pick, len(candidates) - 1)]

