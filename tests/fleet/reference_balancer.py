"""The balancer's routing as a linear scan over every board: a test oracle.

This is ``repro.fleet.balancer.Balancer`` as it stood before least-loaded
routing read one ``ready_at`` key per board and weighted routing cached
its cumulative weights: every request computes every powered board's
predicted start, batch routing re-ranks the boards by energy each time,
and weighted routing re-weighs the powered boards each time.  It reads
only the boards' ground truth, never the ``ready_at`` key the balancer
routes on, so the two stay independent: a fast board's ``powered`` flag
and slot heap ``free``, or an event board's ``outstanding`` count
(:func:`event_predicted_start`).  ``test_balancer_oracle.py`` requires
both to pick the same board.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.fleet import BATCH_SPILL_FACTOR, BoardServer


def predicted_start(board: BoardServer, t: float) -> float:
    """When a request arriving at ``t`` would start on ``board``."""

    if not board.powered:
        return float("inf")
    return max(min(board.free), t)


def event_predicted_start(board: BoardServer, t: float) -> float:
    """When a request arriving at ``t`` would start on an event-fidelity
    ``board``: one service time per full round of its replicas ahead."""

    return t + board.svc_s * (board.outstanding // board.replicas)


class ReferenceBalancer:
    """``least_loaded`` (latency and batch kinds) and ``weighted`` routing
    by scanning every board.

    Round-robin routing never used a scan; it is not part of the oracle.
    """

    def __init__(
        self,
        boards: List[BoardServer],
        routing: str = "least_loaded",
        predicted_start: Callable[[BoardServer, float], float] = predicted_start,
    ) -> None:
        self.boards = boards
        self.routing = routing
        self.predicted_start = predicted_start

    def route(self, t: float, kind: str, u: Optional[float] = None) -> Optional[BoardServer]:
        if self.routing == "weighted":
            return self._weighted(u)
        if kind == "batch":
            return self._cheapest(t)
        return self._least_loaded(t)

    def _weighted(self, u: Optional[float]) -> Optional[BoardServer]:
        weights = []
        candidates = []
        for board in self.boards:
            if not board.powered:
                continue
            candidates.append(board)
            weights.append(board.replicas / board.svc_s)
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

    def _least_loaded(self, t: float) -> Optional[BoardServer]:
        best = None
        best_start = float("inf")
        for board in self.boards:
            if not board.powered:
                continue
            start = self.predicted_start(board, t)
            if start < best_start:
                best, best_start = board, start
        return best

    def _cheapest(self, t: float) -> Optional[BoardServer]:
        best = None
        best_cost = float("inf")
        for board in self.boards:
            if not board.powered:
                continue
            cost = board.energy_per_request
            if cost < best_cost:
                best, best_cost = board, cost
        if best is None:
            return None
        wait = self.predicted_start(best, t) - t
        if wait > BATCH_SPILL_FACTOR * best.svc_s:
            return self._least_loaded(t)
        return best
