"""The balancer's routing as a linear scan over every board: a test oracle.

This is ``repro.fleet.balancer.Balancer`` as it stood before least-loaded
routing got its heap index: every request scans every board, and batch
routing re-ranks the boards by energy each time.  It reads only the
boards' ground truth (``powered`` and the slot heap ``free``), never the
``ready_at`` key the index is built on, so the two stay independent.
``test_balancer_oracle.py`` requires both to pick the same board.
"""

from __future__ import annotations

from typing import List, Optional

from repro.fleet import BATCH_SPILL_FACTOR, BoardServer


def predicted_start(board: BoardServer, t: float) -> float:
    """When a request arriving at ``t`` would start on ``board``."""

    if not board.powered:
        return float("inf")
    return max(min(board.free), t)


class ReferenceBalancer:
    """``least_loaded`` routing (latency and batch kinds) by scanning every board.

    Round-robin and weighted routing never used the scan; they are not
    part of the oracle.
    """

    def __init__(self, boards: List[BoardServer]) -> None:
        self.boards = boards

    def route(self, t: float, kind: str) -> Optional[BoardServer]:
        if kind == "batch":
            return self._cheapest(t)
        return self._least_loaded(t)

    def _least_loaded(self, t: float) -> Optional[BoardServer]:
        best = None
        best_start = float("inf")
        for board in self.boards:
            if not board.powered:
                continue
            start = predicted_start(board, t)
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
        wait = predicted_start(best, t) - t
        if wait > BATCH_SPILL_FACTOR * best.svc_s:
            return self._least_loaded(t)
        return best
