"""The per-cell fleet kernel: :func:`run_cell` serves one shared-nothing cell.

One cell = the boards dealt to it from the inventory plus ``1/cells`` of the
offered traffic, with its own deterministic RNG stream
(``np.random.default_rng((seed, cell))`` — a pure function of the cell
index, never of the shard layout).  Two serving fidelities:

* ``fast`` — the single-pass analytic kernel: each request is routed by the
  :class:`~repro.fleet.balancer.Balancer` and committed to a board slot heap
  at the board's analytic service time.  One heap operation per request;
  autoscale ticks interleave between arrivals.  This is what makes
  million-request day traces take seconds.
* ``event`` — the routing pass runs identically (the balancer always works
  on analytic predictions, as a real load balancer would), then each
  board's assigned arrivals replay through the full transaction-level
  :func:`repro.sim.simulate` as a trace.  A fleet of one board with no
  admission is then *exactly* a ``repro.sim`` run — the identity the fleet
  conformance tests pin.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..api.evaluator import Evaluator
from ..fpga.power import pl_power_kernel
from ..platform import get_board
from ..sim.metrics import QuantileSketch, energy_section, ps_energy_j
from ..sim.policies import max_replicas
from ..sim.scenario import DEFAULT_SLO_FACTOR
from ..sim.workload import arrival_times, build_service_plan
from .autoscale import AutoscaleController
from .balancer import Balancer, BoardServer
from .cluster import FleetScenario
from .report import BoardCell, CellResult, ClassCell

__all__ = ["run_cell", "resolve_slos", "resolve_board_replicas"]

#: Rate-driven fleets with no explicit bound default to this many requests.
DEFAULT_FLEET_REQUESTS = 1000


def resolve_board_replicas(
    scenario: FleetScenario, evaluator: Evaluator
) -> Dict[str, int]:
    """Replicas per board *type* (``replicas=0`` packs each board's fabric)."""

    out: Dict[str, int] = {}
    for group in scenario.boards:
        if group.board in out:
            continue
        if scenario.replicas:
            out[group.board] = scenario.replicas
        else:
            out[group.board] = max_replicas(
                scenario.design_point(board=group.board), evaluator=evaluator
            )
    return out


def _service_times(
    scenario: FleetScenario, evaluator: Evaluator
) -> Dict[str, Tuple[float, float]]:
    """Per board type: (service seconds, PS seconds) of one request."""

    out: Dict[str, Tuple[float, float]] = {}
    for group in scenario.boards:
        if group.board not in out:
            plan = build_service_plan(scenario.design_point(group.board), evaluator=evaluator)
            out[group.board] = (plan.total_seconds, plan.ps_seconds)
    return out


def resolve_slos(
    scenario: FleetScenario, evaluator: Optional[Evaluator] = None
) -> Tuple[Optional[float], ...]:
    """The SLO each class is admitted/accounted against.

    Latency classes fall back to the scenario default, then to
    ``DEFAULT_SLO_FACTOR`` times the no-load service on the fastest board of
    the fleet.  Batch classes have no implicit SLO.
    """

    ev = evaluator if evaluator is not None else Evaluator()
    fastest = min(svc for svc, _ in _service_times(scenario, ev).values())
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
) -> np.ndarray:
    """This cell's share of the offered traffic (1/cells of the stream)."""

    cells = scenario.cells
    if scenario.arrival == "trace":
        return np.asarray(scenario.trace, dtype=np.float64)  # cells == 1, validated
    n_total = scenario.n_requests
    if n_total is None and scenario.duration_s is None:
        n_total = DEFAULT_FLEET_REQUESTS
    n_cell = None
    if n_total is not None:
        n_cell = n_total // cells + (1 if cell < n_total % cells else 0)
        if n_cell == 0:
            return np.empty(0, dtype=np.float64)
    times = arrival_times(
        scenario.arrival,
        rate_hz=scenario.arrival_rate_hz / cells,
        n_requests=n_cell,
        duration_s=scenario.duration_s,
        rng=rng,
        trace=None,
    )
    return np.asarray(times, dtype=np.float64)


def _build_boards(
    scenario: FleetScenario,
    cell: int,
    evaluator: Evaluator,
    replicas: Dict[str, int],
    times: Dict[str, Tuple[float, float]],
) -> List[BoardServer]:
    boards: List[BoardServer] = []
    for index, group_index, name in scenario.cell_inventory(cell):
        spec = get_board(name)
        power = spec.power
        svc, ps = times[name]
        n_rep = replicas[name]
        # The whole board's PL draw while powered: every instantiated
        # replica burns static + dynamic watts (its clock never gates) —
        # the same pricing as repro.sim's energy summary.
        resources = _replica_resources(scenario, name, evaluator)
        pl_w = n_rep * float(pl_power_kernel(resources.dsp, resources.bram, power))
        boards.append(
            BoardServer(
                index=index,
                group=group_index,
                name=name,
                replicas=n_rep,
                svc_s=svc,
                ps_s=ps,
                pl_w=pl_w,
                ps_active_w=power.ps_active_w,
                ps_idle_w=power.ps_idle_w,
                ps_cores=spec.ps_cores,
            )
        )
    return boards


def _replica_resources(scenario: FleetScenario, board: str, evaluator: Evaluator):
    """Fabric resources of one replica's datapath (zero when nothing offloads)."""

    from ..platform import ResourceVector

    decision = evaluator.offload_decision(scenario.design_point(board=board))
    return decision.resources if decision.targets else ResourceVector()


def run_cell(
    scenario: FleetScenario, cell: int, evaluator: Optional[Evaluator] = None
) -> CellResult:
    """Serve one cell end to end and return its picklable result."""

    ev = evaluator if evaluator is not None else Evaluator()
    classes = scenario.classes
    n_classes = len(classes)
    replicas = resolve_board_replicas(scenario, ev)
    times = _service_times(scenario, ev)
    slos = resolve_slos(scenario, ev)

    rng = np.random.default_rng((scenario.seed, cell))
    arrivals = _cell_arrivals(scenario, cell, rng)
    n = len(arrivals)
    if n_classes > 1:
        weights = np.asarray([c.weight for c in classes], dtype=np.float64)
        labels = rng.choice(n_classes, size=n, p=weights / weights.sum())
    else:
        labels = np.zeros(n, dtype=np.intp)
    route_u = rng.random(n) if scenario.routing == "weighted" else None

    boards = _build_boards(scenario, cell, ev, replicas, times)
    balancer = Balancer(boards, scenario.routing)
    controller: Optional[AutoscaleController] = None
    next_tick = np.inf
    interval = scenario.autoscale_interval_s
    if scenario.autoscale:
        controller = AutoscaleController(boards, interval)
        next_tick = interval

    check_slo = scenario.admission == "slo"
    cls_latency = [QuantileSketch() for _ in range(n_classes)]
    cls_wait = [QuantileSketch() for _ in range(n_classes)]
    offered = [0] * n_classes
    rejected = [0] * n_classes
    violations = [0] * n_classes
    kinds = [c.kind for c in classes]
    events = 0
    last_arrival = float(arrivals[-1]) if n else 0.0

    # Event fidelity: the routing pass assigns, the transaction-level
    # simulator serves.  Collect each board's admitted arrivals here.
    collect = scenario.fidelity == "event"
    per_board_trace: Optional[List[List[float]]] = [[] for _ in boards] if collect else None
    board_pos = {b.index: i for i, b in enumerate(boards)}

    for i in range(n):
        t = float(arrivals[i])
        while t >= next_tick:
            controller.tick(next_tick)
            next_tick += interval
            events += 1
        c = int(labels[i])
        offered[c] += 1
        board = balancer.route(t, kinds[c], route_u[i] if route_u is not None else None)
        if board is None:
            rejected[c] += 1
            continue
        if check_slo and kinds[c] == "latency":
            slo = slos[c]
            if slo is not None and (board.predicted_start(t) - t) + board.svc_s > slo:
                rejected[c] += 1
                continue
        start, finish = board.assign(t)
        events += 1
        if collect:
            per_board_trace[board_pos[board.index]].append(t)
            continue
        latency = finish - t
        cls_latency[c].insert(latency)
        cls_wait[c].insert(start - t)
        slo = slos[c]
        if slo is not None and latency > slo:
            violations[c] += 1

    if collect:
        return _event_fidelity_result(
            scenario, cell, ev, boards, per_board_trace, replicas,
            offered, rejected, slos, events, last_arrival,
        )

    horizon = max([last_arrival] + [b.last_finish for b in boards])
    for b in boards:
        b.finalize(horizon)
    completed = [offered[c] - rejected[c] for c in range(n_classes)]
    return CellResult(
        cell=cell,
        offered=sum(offered),
        rejected=sum(rejected),
        completed=sum(completed),
        classes=[
            ClassCell(
                name=classes[c].name,
                kind=kinds[c],
                offered=offered[c],
                rejected=rejected[c],
                completed=completed[c],
                violations=violations[c],
                slo_s=slos[c],
                latency=cls_latency[c],
                wait=cls_wait[c],
            )
            for c in range(n_classes)
        ],
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
        autoscale=controller.summary() if controller is not None else None,
    )


def _event_fidelity_result(
    scenario: FleetScenario,
    cell: int,
    ev: Evaluator,
    boards: List[BoardServer],
    per_board_trace: List[List[float]],
    replicas: Dict[str, int],
    offered: List[int],
    rejected: List[int],
    slos: Tuple[Optional[float], ...],
    events: int,
    last_arrival: float,
) -> CellResult:
    """Replay each board's admitted arrivals through ``repro.sim.simulate``.

    Event fidelity rejects autoscale, so every board is powered for the
    whole run: each is charged its replayed energy plus idle power from its
    own horizon (0 without traffic) up to the fleet horizon.
    """

    from ..sim.runner import simulate  # deferred: repro.sim is the heavy path

    cls = scenario.classes[0]  # event fidelity is single-class (validated)
    slo = slos[0]
    reports = [
        simulate(
            scenario.board_sim_scenario(b.name, trace, replicas[b.name], slo_s=slo), evaluator=ev
        )
        if trace
        else None
        for b, trace in zip(boards, per_board_trace)
    ]
    replayed = [r for r in reports if r is not None]
    horizon = max([last_arrival] + [float(r.horizon_s) for r in replayed])
    latency = QuantileSketch()
    wait = QuantileSketch()
    for report in replayed:
        latency.merge(report.latency_sketch)
        wait.merge(report.wait_sketch)
    completed = sum(r.requests["completed"] for r in replayed)
    violations = sum(int(r.slo["violations"]) for r in replayed if r.slo is not None)
    events += sum(r.events_processed for r in replayed)
    board_cells: List[BoardCell] = []
    for b, report in zip(boards, reports):
        served, busy, own_horizon, ps_j, pl_j = 0, 0.0, 0.0, 0.0, 0.0
        if report is not None:
            served = report.requests["completed"]
            own_horizon = float(report.horizon_s)
            busy = float(report.utilization["accelerator_mean"]) * b.replicas * own_horizon
            ps_j, pl_j = report.energy["ps_energy_J"], report.energy["pl_energy_J"]
        idle = horizon - own_horizon
        board_cells.append(
            BoardCell(
                index=b.index,
                group=b.group,
                name=b.name,
                replicas=b.replicas,
                served=served,
                busy_seconds=busy,
                powered_seconds=horizon,
                energy=energy_section(
                    ps_j + ps_energy_j(b.ps_active_w, b.ps_idle_w, 0.0, b.ps_cores, idle),
                    pl_j + b.pl_w * idle,
                    served,
                    horizon,
                ),
            )
        )
    total_offered = sum(offered)
    total_rejected = sum(rejected)
    return CellResult(
        cell=cell,
        offered=total_offered,
        rejected=total_rejected,
        completed=completed,
        classes=[
            ClassCell(
                name=cls.name,
                kind=cls.kind,
                offered=total_offered,
                rejected=total_rejected,
                completed=completed,
                violations=violations,
                slo_s=slo,
                latency=latency,
                wait=wait,
            )
        ],
        boards=board_cells,
        horizon_s=horizon,
        events=events,
        autoscale=None,
        board_reports=[r.as_dict() for r in replayed],
    )
