"""The simulation driver: :func:`simulate` turns a :class:`SimScenario` into a
:class:`~repro.sim.metrics.SimReport`.

One call wires the whole transaction-level system together:

1. compile the analytic models into per-scenario service plans
   (:func:`~repro.sim.workload.build_service_plan`),
2. materialise the arrival process and (optionally) the per-request
   architecture mix,
3. instantiate the resources — PS core pool, AXI bus, ``replicas`` PL
   accelerator instances behind a policy-driven
   :class:`~repro.sim.policies.Dispatcher`,
4. run every request through its plan (software phases hold a PS core;
   offloaded block invocations queue at the dispatcher and move their
   feature maps over the shared bus), and
5. condense timestamps and occupancy integrals into the report.

With one request, one replica and the FIFO policy nothing ever queues, so
the measured latency equals the analytic ``total_w_pl_s`` — the differential
tests pin that within 1 % over a whole scenario grid.  Everything beyond
(queueing delay, bus contention, batching gains, replica scaling) is the new
ground the simulator opens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from ..api.evaluator import Evaluator
from ..api.scenario import Scenario, check_seed
from ..fixedpoint.qformat import QFormat
from .engine import PARK, Process, Simulator
from .metrics import (
    QuantileSketch,
    SimReport,
    energy_summary,
    slo_summary,
    windowed_mean,
)
from .policies import Dispatcher, Execution, size_replicas
from .resources import Accelerator, AxiBus, Resource
from .scenario import SimScenario, request_cap
from .workload import (
    PsSegment,
    Request,
    ServicePlan,
    arrival_times,
    build_service_plan,
    sample_mix,
)

__all__ = ["SimSystem", "as_sim_scenario", "build_board", "simulate"]


def as_sim_scenario(scenario: Scenario) -> SimScenario:
    """Promote a plain scenario to a single-request simulation scenario."""

    if isinstance(scenario, SimScenario):
        return scenario
    return SimScenario(
        arrival="deterministic",
        n_requests=1,
        **scenario.as_dict(),
    )


@dataclass
class SimSystem:
    """Handles a fault mode manipulates at injection/clear time.

    The contract between :mod:`repro.sim` and :mod:`repro.faults`: modes are
    duck-typed objects with ``inject(system) -> token`` /
    ``clear(system, token)`` plus ``kind``, ``rate_per_hour`` and
    ``duration_s`` attributes — the runner never imports the faults package.
    """

    sim: Simulator
    ps: Resource
    #: The PS pool's nominal size (PS-core loss degrades from it).
    ps_cores: int
    bus: AxiBus
    dispatcher: Dispatcher
    accelerators: List[Accelerator]
    #: Q-format of the simulated datapath (DMA corruption flips its bits).
    qformat: QFormat
    #: Fault-dedicated RNG (separate stream from the workload's seed, so
    #: injecting a fault never perturbs arrivals or mix sampling).
    rng: np.random.Generator
    counters: Dict[str, int] = field(default_factory=dict, init=False)
    #: Faults in force by clear token, in injection order (the overlapping
    #: modes derive their target's live value from these).
    in_force: Dict[object, object] = field(default_factory=dict, init=False)


def _request_process(
    sim: Simulator,
    request: Request,
    plan: ServicePlan,
    ps: Resource,
    dispatcher: Dispatcher,
    completed: List[Request],
) -> Generator:
    """One request's life: walk the plan, record completion.

    The process is started *at* the request's arrival instant
    (:meth:`Simulator.run` takes the arrivals), so no leading arrival sleep is
    needed — one queue entry per request instead of three.  A PS segment
    books a free core in line (:meth:`Resource.try_acquire`), so only a
    contended one parks for its core and accrues ``ps_wait``; its compute
    is a bare delay.  An offloaded invocation parks the process until the
    dispatcher wakes it.
    """

    for segment in plan.segments:
        if isinstance(segment, PsSegment):
            if not ps.try_acquire():
                asked = sim.now
                ps.enqueue()
                yield PARK
                request.ps_wait += sim.now - asked
            yield segment.seconds
            ps.release()
        else:
            dispatcher.submit(request, segment)
            yield PARK
    request.completed = sim.now
    completed.append(request)


def _normalize_faults(faults: Optional[Sequence[object]]) -> List[Tuple[object, float]]:
    """Check ``(mode, t_inject)`` pairs; the time becomes a float."""

    out: List[Tuple[object, float]] = []
    for entry in faults or ():
        if not (isinstance(entry, tuple) and len(entry) == 2):
            raise TypeError(f"fault entry {entry!r} is not a (mode, t_inject) pair")
        mode, t = entry[0], float(entry[1])
        if not 0.0 <= t < math.inf:
            raise ValueError(f"fault {entry!r}: injection time must be non-negative and finite")
        out.append((mode, t))
    return out


def _arm_fault(
    sim: Simulator,
    system: SimSystem,
    mode: object,
    t_inject: float,
    log: List[Dict[str, object]],
    times: List[float],
) -> None:
    """Schedule one fault's injection (and clearing, for transient faults)."""

    entry: Dict[str, object] = {
        "mode": mode.kind,
        "rate_per_hour": mode.rate_per_hour,
        "t_inject": t_inject,
        "cleared_at": None,
    }
    log.append(entry)
    token_box: Dict[str, object] = {}

    def clear() -> None:
        mode.clear(system, token_box.get("token"))
        entry["cleared_at"] = sim.now
        times.append(sim.now)

    def fire() -> None:
        token_box["token"] = mode.inject(system)
        entry["t_inject"] = sim.now
        times.append(sim.now)
        if mode.duration_s is not None:
            sim.schedule(mode.duration_s, clear)

    sim.schedule(t_inject, fire)


def build_board(
    sim: Simulator, scenario: SimScenario, n_replicas: int, ps_cores: int
) -> Tuple[Resource, AxiBus, List[Accelerator], Dispatcher]:
    """One board's serving system on ``sim``.

    A pool of ``ps_cores`` PS cores, the AXI bus, ``n_replicas`` PL
    accelerators behind a :class:`Dispatcher` running ``scenario``'s
    policy, batch size and DMA channels, and the dispatcher's PS software
    fallback.  :func:`simulate` builds its one board with it; an
    event-fidelity fleet cell builds every board of the cell on one
    simulator.
    """

    ps = Resource(sim, capacity=ps_cores, name="ps")
    bus = AxiBus(sim, channels=scenario.dma_channels)
    accelerators = [Accelerator(sim, i) for i in range(n_replicas)]
    dispatcher = Dispatcher(sim, bus, accelerators, scenario.policy, scenario.batch_size)

    # Degraded-mode escape hatch: when every replica is dead, an offloaded
    # invocation runs as software on a PS core (the paper's all-software
    # path, priced by the same execution report).  Installed unconditionally
    # but only ever called once fail_replica() has emptied the fleet.
    def _fallback_process(execution: Execution) -> Generator:
        if ps.try_acquire():
            yield 0.0  # a free core is still granted through one zero-delay entry
        else:
            ps.enqueue()
            yield PARK
        execution.request.pl_wait += sim.now - execution.submitted
        yield execution.plx.ps_fallback_seconds
        ps.release()
        execution.finish()

    dispatcher.ps_fallback = lambda execution: Process(sim, _fallback_process(execution))
    return ps, bus, accelerators, dispatcher


def simulate(
    scenario: Scenario,
    evaluator: Optional[Evaluator] = None,
    mix: Optional[Sequence[Tuple[Scenario, float]]] = None,
    faults: Optional[Sequence[object]] = None,
    fault_seed: int = 0,
) -> SimReport:
    """Run one serving simulation and summarise it.

    Parameters
    ----------
    scenario:
        A :class:`SimScenario` (or a plain :class:`Scenario`, promoted to a
        single-request deterministic run).  ``replicas=0`` auto-sizes the
        replica count from the device resource budget.
    evaluator:
        An evaluator to reuse for the analytic service times (and to warm);
        a fresh one otherwise.
    mix:
        Optional weighted per-request architecture mix, ``[(scenario,
        weight), ...]``.  Mixed scenarios share the simulated hardware, so
        they must agree on board, clock, MAC units and Q-format with the
        main scenario (the replicas are physical datapaths).
    faults:
        Optional fault injections as ``(mode, t_inject)`` pairs.  An empty
        sequence is *exactly* the nominal run — every hook
        is an inert conditional, so ``simulate(s)`` and
        ``simulate(s, faults=[])`` are bit-identical.
    fault_seed:
        Seed of the fault-dedicated RNG (bit-flip positions, sampled
        activation values); independent of the workload ``seed``.
    """

    fault_seed = check_seed("fault_seed", fault_seed)
    sim_scenario = as_sim_scenario(scenario)
    ev = evaluator if evaluator is not None else Evaluator()
    injections = _normalize_faults(faults)

    # -- replica sizing and per-replica footprint (energy model) ----------------------
    # Both budgets are per-board: auto-sized replicas pack the board's
    # fabric, and ``ps_cores=0`` resolves to the board's core count, so the
    # same SimScenario compares boards under identical traffic.
    design = sim_scenario.design_point
    board = sim_scenario.board_spec
    n_replicas, replica_resources = size_replicas(design, sim_scenario.replicas, ev)
    ps_cores = sim_scenario.ps_cores or board.ps_cores

    # -- workload ---------------------------------------------------------------------
    rng = np.random.default_rng(sim_scenario.seed)
    arrivals = arrival_times(
        sim_scenario.arrival,
        rate_hz=sim_scenario.arrival_rate_hz,
        n_requests=request_cap(sim_scenario),
        duration_s=sim_scenario.duration_s,
        rng=rng,
        trace=sim_scenario.trace,
    )
    if mix is not None:
        for candidate, _ in mix:
            _check_mix_compatible(design, candidate)
        per_request = sample_mix(mix, len(arrivals), rng=rng)
    else:
        per_request = [design] * len(arrivals)

    # The main design point always gets a plan (even when the mix routes no
    # request to it): its no-load service time is the report's baseline.
    plans: Dict[Scenario, ServicePlan] = {design: build_service_plan(design, evaluator=ev)}
    for point in per_request:
        if point not in plans:
            plans[point] = build_service_plan(point, evaluator=ev)

    # -- system -----------------------------------------------------------------------
    sim = Simulator()
    ps, bus, accelerators, dispatcher = build_board(sim, sim_scenario, n_replicas, ps_cores)

    # -- fault injection --------------------------------------------------------------
    # Each injection is a timed callback on the one event queue
    # (Simulator.schedule), so fault runs stay bit-reproducible; with no
    # injections nothing below schedules anything and the run is nominal.
    fault_log: List[Dict[str, object]] = []
    fault_times: List[float] = []
    if injections:
        system = SimSystem(
            sim=sim,
            ps=ps,
            ps_cores=ps_cores,
            bus=bus,
            dispatcher=dispatcher,
            accelerators=accelerators,
            qformat=design.qformat,
            rng=np.random.default_rng(fault_seed),
        )
        for mode, t_inject in injections:
            _arm_fault(sim, system, mode, t_inject, fault_log, fault_times)

    # Warm-up trimming: a probe snapshots every occupancy integral at
    # ``warmup_s`` so the reported metrics cover [warmup_s, horizon] only.
    # Only spawned when asked — the probe's timed entry would otherwise pin the
    # horizon to at least warmup_s.
    warmup = sim_scenario.warmup_s
    marks: Dict[str, float] = {}

    def _warmup_probe() -> None:
        marks["ps"] = ps.busy.reading()
        marks["bus"] = bus.busy.reading()
        marks["queue"] = dispatcher.pending.reading()
        for acc in accelerators:
            marks[acc.name] = acc.busy.reading()
            marks[f"{acc.name}_down"] = acc.down.reading()
        # Peak/batch statistics restart at the window too: the transient the
        # user asked to trim must not leak into any 'queue' metric.
        dispatcher.pending.peak = dispatcher.pending.level
        marks["batches"] = len(dispatcher.batch_sizes)

    if warmup > 0.0:
        # A timed callback, registered before the requests: on a tie with an
        # arrival at exactly ``warmup`` the probe still snapshots first.
        sim.schedule(warmup, _warmup_probe)

    completed: List[Request] = []
    requests = [
        Request(index=i, arrival=t, scenario=point)
        for i, (t, point) in enumerate(zip(arrivals, per_request))
    ]
    # Every request process starts directly at its arrival instant, from the
    # kernel's sorted arrival stream (no start entry, leading arrival sleep
    # or heap push per request).
    sim.run(
        (
            request.arrival,
            _request_process(
                sim, request, plans[request.scenario], ps, dispatcher, completed
            ),
        )
        for request in requests
    )

    # -- summary ----------------------------------------------------------------------
    horizon = sim.now
    if warmup > 0.0 or injections:
        # The probe's timed entry (and any fault scheduled past the last
        # completion) keeps the simulator alive beyond the served work; that
        # idle tail is measurement artefact, not serving activity — clamp
        # the horizon to the last real event so a too-long warm-up reads as
        # an empty window over the true run, not as a 0-throughput run of
        # length warmup_s.  Fault injection/clear instants count as real
        # events (a dead replica's downtime is genuine system state).
        last_arrival = arrivals[-1] if arrivals else 0.0
        last_completion = max((r.completed for r in completed), default=0.0)
        last_fault = max(fault_times, default=0.0)
        horizon = min(horizon, max(last_arrival, last_completion, last_fault))
    ps_busy = ps.busy.finalize(horizon)
    pending_integral = dispatcher.pending.finalize(horizon)
    bus_busy = bus.busy.finalize(horizon)
    for acc in accelerators:
        acc.busy.finalize(horizon)
    # A warm-up at or past the horizon leaves an empty window: its probe read
    # the down integrals beyond the horizon, so no downtime is booked.
    replica_downtime = 0.0
    if injections and warmup < horizon:
        replica_downtime = sum(
            acc.down.finalize(horizon) - marks.get(f"{acc.name}_down", 0.0)
            for acc in accelerators
        )
    # The measurement window: [warmup, horizon].  With warmup == 0 the marks
    # default to 0 and every expression below reduces to the whole-run value.
    window_start = min(warmup, horizon)
    window = horizon - window_start
    measured = [r for r in completed if r.arrival >= window_start]
    latency_sketch = QuantileSketch()
    wait_sketch = QuantileSketch()
    for r in measured:
        latency_sketch.insert(r.latency)
        wait_sketch.insert(r.total_wait)
    batch_sizes: Dict[str, float] = {}
    measured_batches = dispatcher.batch_sizes[int(marks.get("batches", 0)) :]
    if measured_batches:
        sizes = np.asarray(measured_batches, dtype=np.float64)
        batch_sizes = {
            "count": float(sizes.size),
            "mean": float(sizes.mean()),
            "max": float(sizes.max()),
        }

    # The report carries the *resolved* replica/core counts (0 asked for
    # board-budget auto-sizing; readers want the numbers that actually ran).
    scenario_dict = sim_scenario.as_dict()
    scenario_dict["replicas"] = n_replicas
    scenario_dict["ps_cores"] = ps_cores

    acc_util = [
        windowed_mean(acc.busy.integral, marks.get(acc.name, 0.0), window)
        for acc in accelerators
    ]
    note: Optional[str] = None
    if not measured and len(requests):
        note = (
            "nothing measured: the warm-up window covers the entire run, so "
            "latency/throughput/utilization are NaN (JSON null)"
        )
    slo: Optional[Dict[str, object]] = None
    if sim_scenario.slo_s is not None:
        slo = slo_summary(measured, sim_scenario.slo_s)
    faults_dict: Optional[Dict[str, object]] = None
    if injections:
        faults_dict = {
            "seed": fault_seed,
            "injections": fault_log,
            "redispatched": dispatcher.redispatched,
            "ps_fallback_served": dispatcher.fallback_served,
            "corrupted_requests": sum(1 for r in measured if r.corrupted),
            "corrupted_words": int(system.counters.get("corrupted_words", 0)),
            "replica_downtime_s": replica_downtime,
            "replicas_alive_end": dispatcher.alive_count,
        }
    return SimReport(
        scenario=scenario_dict,
        requests={
            "offered": len(requests),
            "completed": len(completed),
            "measured": len(measured),
        },
        horizon_s=horizon,
        throughput_rps=len(measured) / window if window > 0 else float("nan"),
        service_s=plans[design].total_seconds,
        latency=latency_sketch.stats(),
        wait=wait_sketch.stats(),
        utilization={
            # Mid-run capacity faults (PS-core loss) mutate ps.capacity; the
            # report normalises by the *provisioned* counts throughout.
            "ps": windowed_mean(ps_busy, marks.get("ps", 0.0), window) / ps_cores,
            "axi": windowed_mean(bus_busy, marks.get("bus", 0.0), window) / bus.capacity,
            "accelerators": acc_util,
            "accelerator_mean": sum(acc_util) / n_replicas,
        },
        queue={
            "mean_depth": windowed_mean(pending_integral, marks.get("queue", 0.0), window),
            "peak_depth": float(dispatcher.pending.peak),
        },
        energy=energy_summary(
            horizon_s=window,
            ps_busy_core_seconds=ps_busy - marks.get("ps", 0.0),
            ps_cores=ps_cores,
            replica_resources=replica_resources,
            n_replicas=n_replicas,
            completed=len(measured),
            power=board.power,
            replica_downtime_s=replica_downtime,
        ),
        bus=bus.as_dict(),
        events_processed=sim.events_processed,
        batch_sizes=batch_sizes,
        slo=slo,
        faults=faults_dict,
        note=note,
        latency_sketch=latency_sketch,
        wait_sketch=wait_sketch,
    )


def _check_mix_compatible(design: Scenario, candidate: Scenario) -> None:
    """Mixed requests share the physical PL datapath; hardware knobs must agree."""

    for knob in ("board", "pl_clock_hz", "n_units", "word_length", "fraction_bits"):
        if getattr(candidate, knob) != getattr(design, knob):
            raise ValueError(
                f"mix scenario {candidate.full_name} differs from the main scenario "
                f"on '{knob}' ({getattr(candidate, knob)!r} != {getattr(design, knob)!r}); "
                "mixed requests share the simulated hardware"
            )
