"""The per-cell fleet kernel: :func:`run_cell` serves one shared-nothing cell.

One cell = the boards dealt to it from the inventory plus ``1/cells`` of the
offered traffic, with its own deterministic RNG stream
(``np.random.default_rng((seed, cell))`` — a pure function of the cell
index, never of the shard layout).  Each board *type* in the inventory is
sized and priced once per cell (:func:`_board_types`): its replicas through
the simulator's own rule (:func:`repro.sim.policies.size_replicas`), its
service plan, its PL watts from one replica's footprint.  The SLOs and
every board of the cell read that table.
Two serving fidelities:

* ``fast`` — the single-pass analytic kernel: each request is routed by the
  :class:`~repro.fleet.balancer.Balancer` and committed to a board slot heap
  at the board's analytic service time.  A request costs one routing
  decision over the cell's B boards plus one slot-heap commit;
  autoscale ticks interleave between arrivals.  This is what makes
  million-request day traces take seconds.
* ``event`` — the whole cell is one transaction-level simulation: every
  board's serving system (the one :func:`repro.sim.simulate` builds for
  its single board) on one simulator, and each request routed and admitted
  at its arrival instant by the same balancer rules, reading live board
  state (:class:`EventBoard`).  A fleet of one board with no admission is
  then *exactly* a ``repro.sim`` run — the identity the fleet conformance
  tests pin.

Both fidelities fill one per-class tally and assemble the same
:class:`~repro.fleet.report.CellResult`.
"""

from __future__ import annotations

from array import array
from typing import Dict, Generator, Iterable, List, Optional, Tuple

import numpy as np

from ..api.evaluator import Evaluator
from ..fpga.power import pl_power_kernel
from ..platform import get_board
from ..sim.policies import size_replicas
from ..sim.scenario import DEFAULT_SLO_FACTOR, request_cap
from ..sim.workload import Request, ServicePlan, arrival_times, build_service_plan
from .autoscale import AutoscaleController
from .balancer import Balancer, BoardServer
from .cluster import FleetScenario
from .report import BoardCell, CellResult, ClassCell

__all__ = ["EventBoard", "run_cell", "resolve_slos"]

#: Per board type: (replicas, service plan, PL W) of one board.
BoardTypes = Dict[str, Tuple[int, ServicePlan, float]]


def _board_types(scenario: FleetScenario, evaluator: Evaluator) -> BoardTypes:
    """Size and price each board *type* of the inventory once.

    The PL draw is the whole board's while powered: every instantiated
    replica burns static + dynamic watts (its clock never gates), the same
    pricing as ``repro.sim``'s energy summary.
    """

    out: BoardTypes = {}
    for group in scenario.boards:
        if group.board in out:
            continue
        design = scenario.design_point(group.board)
        replicas, per_replica = size_replicas(design, scenario.replicas, evaluator)
        plan = build_service_plan(design, evaluator=evaluator)
        power = design.board_spec.power
        pl_w = replicas * float(pl_power_kernel(per_replica.dsp, per_replica.bram, power))
        out[group.board] = (replicas, plan, pl_w)
    return out


def resolve_slos(scenario: FleetScenario, types: BoardTypes) -> Tuple[Optional[float], ...]:
    """The SLO each class is admitted/accounted against.

    Latency classes fall back to the scenario default, then to
    ``DEFAULT_SLO_FACTOR`` times the no-load service on the fastest board of
    the fleet (``types`` as :func:`_board_types` builds it).  Batch classes
    have no implicit SLO.
    """

    fastest = min(plan.total_seconds for _, plan, _ in types.values())
    resolved: List[Optional[float]] = []
    for cls in scenario.classes:
        if cls.slo_s is not None:
            resolved.append(cls.slo_s)
        elif scenario.slo_s is not None:
            resolved.append(scenario.slo_s)
        elif cls.kind == "latency":
            resolved.append(DEFAULT_SLO_FACTOR * fastest)
        else:
            resolved.append(None)
    return tuple(resolved)


def _cell_arrivals(
    scenario: FleetScenario, cell: int, rng: np.random.Generator
) -> array:
    """This cell's share of the offered traffic (1/cells of the stream).

    A trace (always one cell) stops at ``n_requests`` and ``duration_s`` as
    it does in ``repro.sim.simulate``.  The times come back as a float64
    ``array`` built from ``arrival_times``' Python floats: indexing it
    yields plain floats, at 8 bytes per request.
    """

    cells = scenario.cells
    n_total = request_cap(scenario)
    n_cell = None
    if n_total is not None:
        n_cell = n_total // cells + (1 if cell < n_total % cells else 0)
        if n_cell == 0:
            return array("d")
    times = arrival_times(
        scenario.arrival,
        rate_hz=scenario.arrival_rate_hz / cells,
        n_requests=n_cell,
        duration_s=scenario.duration_s,
        rng=rng,
        trace=scenario.trace,
    )
    return array("d", times)


class EventBoard(BoardServer):
    """A board of an event-fidelity cell, served inside the cell's simulator
    by the system :func:`repro.sim.runner.build_board` builds.

    Its :meth:`predicted_start` reads live state: ``outstanding`` counts the
    requests routed here and not yet completed.  The cell writes it into
    ``ready_at`` for every board at each arrival instant, before routing.
    """

    __slots__ = ("plan", "outstanding", "ps", "accelerators", "dispatcher")

    def predicted_start(self, t: float) -> float:
        """When a request arriving at ``t`` would begin service here: after
        one service time per full round of the ``replicas`` ahead of it."""

        return t + self.svc_s * (self.outstanding // self.replicas)


def _build_boards(
    scenario: FleetScenario, cell: int, types: BoardTypes, kind: type
) -> List[BoardServer]:
    boards: List[BoardServer] = []
    for index, group_index, name in scenario.cell_inventory(cell):
        spec = get_board(name)
        power = spec.power
        n_rep, plan, pl_w = types[name]
        boards.append(
            kind(
                index=index,
                group=group_index,
                name=name,
                replicas=n_rep,
                svc_s=plan.total_seconds,
                ps_s=plan.ps_seconds,
                pl_w=pl_w,
                ps_active_w=power.ps_active_w,
                ps_idle_w=power.ps_idle_w,
                ps_cores=spec.ps_cores,
            )
        )
    return boards


def _admit(
    balancer: Balancer, t: float, cls: ClassCell, u: Optional[float], slo_admission: bool
) -> Optional[BoardServer]:
    """Count one request of ``cls`` arriving at ``t`` and route it.

    Returns its board, or ``None`` (counted as rejected) when no board is
    powered or, under SLO admission, when a latency request's predicted
    sojourn on its board breaks the class SLO.
    """

    cls.offered += 1
    board = balancer.route(t, cls.kind, u)
    if board is not None and slo_admission and cls.kind == "latency" and cls.slo_s is not None:
        if (board.predicted_start(t) - t) + board.svc_s > cls.slo_s:
            board = None
    if board is None:
        cls.rejected += 1
    return board


def run_cell(
    scenario: FleetScenario, cell: int, evaluator: Optional[Evaluator] = None
) -> CellResult:
    """Serve one cell end to end and return its picklable result."""

    ev = evaluator if evaluator is not None else Evaluator()
    classes = scenario.classes
    types = _board_types(scenario, ev)
    tally = [
        ClassCell(name=c.name, kind=c.kind, slo_s=slo)
        for c, slo in zip(classes, resolve_slos(scenario, types))
    ]

    rng = np.random.default_rng((scenario.seed, cell))
    arrivals = _cell_arrivals(scenario, cell, rng)
    n = len(arrivals)
    if len(classes) > 1:
        weights = np.asarray([c.weight for c in classes], dtype=np.float64)
        labels = rng.choice(len(classes), size=n, p=weights / weights.sum()).tolist()
    else:
        labels = [0] * n
    route_u = rng.random(n).tolist() if scenario.routing == "weighted" else [None] * n
    # Per request: arrival time, class tally, routing uniform (weighted only).
    requests = zip(arrivals, [tally[c] for c in labels], route_u)

    autoscale = None
    if scenario.fidelity == "event":
        boards = _build_boards(scenario, cell, types, EventBoard)
        horizon, events = _serve_events(scenario, boards, types, requests)
    else:
        boards = _build_boards(scenario, cell, types, BoardServer)
        balancer = Balancer(boards, scenario.routing)
        slo_admission = scenario.admission == "slo"
        controller: Optional[AutoscaleController] = None
        next_tick = np.inf
        interval = scenario.autoscale_interval_s
        if scenario.autoscale:
            controller = AutoscaleController(balancer, interval)
            next_tick = interval
        events = 0
        for t, cls, u in requests:
            while t >= next_tick:
                controller.tick(next_tick)
                next_tick += interval
                events += 1
            board = _admit(balancer, t, cls, u, slo_admission)
            if board is not None:
                start, finish = board.assign(t)
                events += 1
                cls.served(finish - t, start - t)
        horizon = max([arrivals[-1] if n else 0.0] + [b.last_finish for b in boards])
        for b in boards:
            b.finalize(horizon)
        if controller is not None:
            autoscale = controller.summary()

    completed = sum(c.completed for c in tally)
    return CellResult(
        cell=cell,
        offered=n,
        rejected=n - completed,
        completed=completed,
        classes=tally,
        boards=[
            BoardCell(
                index=b.index,
                group=b.group,
                name=b.name,
                replicas=b.replicas,
                served=b.served,
                busy_seconds=b.busy_seconds,
                powered_seconds=b.powered_seconds,
                energy=b.energy_j(),
            )
            for b in boards
        ],
        horizon_s=horizon,
        events=events,
        autoscale=autoscale,
    )


def _serve_events(
    scenario: FleetScenario,
    boards: List[EventBoard],
    types: BoardTypes,
    requests: Iterable[Tuple[float, ClassCell, Optional[float]]],
) -> Tuple[float, int]:
    """Serve the cell's requests in one transaction-level simulation.

    Each board gets the serving system ``simulate`` builds for its single
    board: all its PS cores and the simulator's default dispatch.  Each
    request's process routes and admits itself at its arrival instant
    (:func:`_admit`, on each board's live :meth:`EventBoard.predicted_start`
    written into ``ready_at``), then walks its board's service plan.  Every
    board is powered for the whole run (autoscale is rejected at this
    fidelity).  Returns the horizon and the event count: one per
    admitted request plus the simulator's events.
    """

    # Deferred: repro.sim's serving model is the heavy path.
    from ..sim.engine import Simulator
    from ..sim.runner import _request_process, as_sim_scenario, build_board

    sim = Simulator()
    for board in boards:
        board.plan = types[board.name][1]
        board.outstanding = 0
        board.ps, _, board.accelerators, board.dispatcher = build_board(
            sim, as_sim_scenario(board.plan.scenario), board.replicas, board.ps_cores
        )
    balancer = Balancer(boards, scenario.routing)
    slo_admission = scenario.admission == "slo"
    completed: List[Request] = []

    def serve(i: int, t: float, cls: ClassCell, u: Optional[float]) -> Generator:
        for b in boards:
            b.ready_at = b.predicted_start(t)
        board = _admit(balancer, t, cls, u, slo_admission)
        if board is None:
            return
        board.outstanding += 1
        plan = board.plan
        request = Request(index=i, arrival=t, scenario=plan.scenario)
        yield from _request_process(sim, request, plan, board.ps, board.dispatcher, completed)
        board.outstanding -= 1
        board.served += 1
        cls.served(request.latency, request.total_wait)

    sim.run((t, serve(i, t, cls, u)) for i, (t, cls, u) in enumerate(requests))
    for board in boards:
        board.ps_busy_seconds = board.ps.busy.finalize(sim.now)
        board.busy_seconds = sum(acc.busy.finalize(sim.now) for acc in board.accelerators)
        board.finalize(sim.now)
    return sim.now, len(completed) + sim.events_processed
