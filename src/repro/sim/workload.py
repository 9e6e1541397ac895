"""Workload layer: request arrivals, per-request mixes and service plans.

Three concerns live here:

* **Arrival processes** — :func:`arrival_times` materialises when requests
  enter the system: evenly spaced (``deterministic``), a Poisson process
  (``poisson``, seeded and reproducible), or an explicit ``trace`` of
  timestamps (replaying a measured log).
* **Request mixes** — :func:`sample_mix` draws each request's architecture
  from a weighted set of scenarios, so one simulation can serve e.g. 70 %
  rODENet-3-56 and 30 % rODENet-1-20 traffic against the same hardware.
* **Service plans** — :func:`build_service_plan` compiles a scenario into the
  exact sequence of PS phases and PL block invocations the analytic
  :class:`~repro.api.evaluator.Evaluator` prices, *decomposed* so each piece
  can contend individually: software layer-group times run on the PS core,
  and every offloaded block execution becomes (input DMA burst, PL compute,
  output DMA burst).  Summed with no contention the plan equals the
  analytic ``total_w_pl_s`` — that identity is the cross-validation the
  differential tests assert — while under load the same plan produces
  queueing behaviour no closed-form formula expresses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..api.evaluator import Evaluator
from ..api.scenario import Scenario
from ..core.network_spec import layer_geometry
from ..fpga.axi import AxiTransferModel

__all__ = [
    "ARRIVAL_KINDS",
    "Request",
    "PsSegment",
    "PlExecution",
    "ServicePlan",
    "arrival_times",
    "sample_mix",
    "build_service_plan",
]

#: Supported arrival-process names.
ARRIVAL_KINDS: Tuple[str, ...] = ("deterministic", "poisson", "trace")


# -- requests ----------------------------------------------------------------------------


@dataclass
class Request:
    """One inference request travelling through the simulated system."""

    index: int
    arrival: float
    scenario: Scenario
    completed: Optional[float] = None
    ps_wait: float = 0.0
    pl_wait: float = 0.0
    #: Set by the DMA-corruption fault mode when a bit flip lands in the
    #: request's activations badly enough to saturate the fixed-point
    #: accumulators; a corrupted completion counts as an SLO violation.
    corrupted: bool = False

    @property
    def latency(self) -> float:
        """Sojourn time: arrival to completion (inf while in flight)."""

        return self.completed - self.arrival if self.completed is not None else float("inf")

    @property
    def total_wait(self) -> float:
        return self.ps_wait + self.pl_wait


# -- service plans -----------------------------------------------------------------------


@dataclass(frozen=True)
class PsSegment:
    """A software phase executed on (and contending for) a PS core."""

    layer: str
    seconds: float


@dataclass(frozen=True)
class PlExecution:
    """One offloaded block invocation: input DMA, PL compute, output DMA."""

    layer: str
    words_in: int
    words_out: int
    transfer_in_seconds: float
    transfer_out_seconds: float
    compute_seconds: float
    #: Software time of the same block execution on a PS core — the
    #: degraded-mode price when every PL replica is dead and the dispatcher
    #: falls back to the paper's all-software path for this invocation.
    ps_fallback_seconds: float = 0.0

    @property
    def seconds(self) -> float:
        """Contention-free service time of the whole invocation."""

        return self.transfer_in_seconds + self.compute_seconds + self.transfer_out_seconds


@dataclass(frozen=True)
class ServicePlan:
    """The ordered work a request performs, segment by segment."""

    scenario: Scenario
    segments: Tuple[Union[PsSegment, PlExecution], ...]

    @property
    def total_seconds(self) -> float:
        """No-contention end-to-end service time (= analytic ``total_w_pl_s``)."""

        return sum(s.seconds for s in self.segments)

    @property
    def ps_seconds(self) -> float:
        return sum(s.seconds for s in self.segments if isinstance(s, PsSegment))

    @property
    def pl_executions(self) -> int:
        return sum(1 for s in self.segments if isinstance(s, PlExecution))


def build_service_plan(
    scenario: Scenario,
    evaluator: Optional[Evaluator] = None,
    transfer_model: Optional[AxiTransferModel] = None,
) -> ServicePlan:
    """Compile a scenario into its PS/PL segment sequence.

    The per-layer numbers come from the evaluator's own execution report
    (same offload targets, same solver stages), and the DMA split uses the
    same transfer model the analytic path prices, so
    ``plan.total_seconds == report.total_with_pl`` up to float summation
    order.  Offloaded layers are *not* merged across executions: each block
    invocation is its own (DMA in, compute, DMA out) transaction, which is
    what batching policies and bus contention act on.
    """

    ev = evaluator if evaluator is not None else Evaluator()
    report = ev.execution_report(scenario)
    if transfer_model is None:
        # The board's PL clock prices the DMA bursts (one source of truth
        # with the analytic models — see AxiTransferConfig.for_board).
        from ..fpga.axi import AxiTransferConfig

        transfer_model = AxiTransferModel(AxiTransferConfig.for_board(scenario.board_spec))
    transfers = transfer_model

    segments: List[Union[PsSegment, PlExecution]] = []
    for entry in report.layers:
        if not entry.offloaded or entry.pl_seconds_per_execution is None:
            # Software executions of one layer group run back-to-back on the
            # PS; one segment per group keeps the event count low without
            # changing any timing (the PS is held throughout either way).
            segments.append(PsSegment(layer=entry.layer, seconds=entry.software_seconds))
            continue
        geom = layer_geometry(entry.layer).fpga_geometry()
        t_in = transfers.transfer_seconds(geom.input_elements)
        t_out = transfers.transfer_seconds(geom.output_elements)
        compute = max(0.0, entry.pl_seconds_per_execution - t_in - t_out)
        for _ in range(entry.executions):
            segments.append(
                PlExecution(
                    layer=entry.layer,
                    words_in=geom.input_elements,
                    words_out=geom.output_elements,
                    transfer_in_seconds=t_in,
                    transfer_out_seconds=t_out,
                    compute_seconds=compute,
                    ps_fallback_seconds=entry.software_seconds_per_execution,
                )
            )
    segments.append(PsSegment(layer="overhead", seconds=report.overhead_seconds))
    return ServicePlan(scenario=scenario, segments=tuple(segments))


# -- arrival processes -------------------------------------------------------------------


def arrival_times(
    kind: str,
    rate_hz: Optional[float] = None,
    n_requests: Optional[int] = None,
    duration_s: Optional[float] = None,
    rng: Optional[np.random.Generator] = None,
    trace: Optional[Sequence[float]] = None,
) -> List[float]:
    """Absolute arrival timestamps for one simulation run.

    ``deterministic`` and ``poisson`` need ``rate_hz`` plus at least one stop
    condition (``n_requests`` and/or ``duration_s``; both apply when both are
    given).  ``trace`` replays the given timestamps (which must be sorted and
    non-negative), optionally truncated by the same stop conditions.
    """

    if kind not in ARRIVAL_KINDS:
        raise ValueError(f"unknown arrival process '{kind}'; expected one of {ARRIVAL_KINDS}")
    if kind == "trace":
        if trace is None:
            raise ValueError("trace arrivals need an explicit list of timestamps")
        times = [float(t) for t in trace]
        if not all(0 <= t < math.inf for t in times) or times != sorted(times):
            raise ValueError("trace timestamps must be finite, sorted and non-negative")
    else:
        if rate_hz is None or rate_hz <= 0:
            raise ValueError(f"{kind} arrivals need a positive rate_hz")
        if n_requests is None and duration_s is None:
            raise ValueError("pass n_requests and/or duration_s to bound the arrivals")
        if kind == "deterministic":
            cap = (
                n_requests
                if n_requests is not None
                else int(np.floor(rate_hz * duration_s)) + 1
            )
            times = [i / rate_hz for i in range(cap)]
        else:
            if rng is None:
                rng = np.random.default_rng(0)
            if n_requests is not None:
                times = list(np.cumsum(rng.exponential(1.0 / rate_hz, size=n_requests)))
            else:
                # Unbounded count: draw inter-arrival gaps in chunks until the
                # horizon is passed (a fixed-size draw would bias the tail).
                times = []
                t = 0.0
                chunk = max(16, int(np.ceil(rate_hz * duration_s)))
                while t <= duration_s:
                    for gap in rng.exponential(1.0 / rate_hz, size=chunk):
                        t += gap
                        if t > duration_s:
                            break
                        times.append(t)
    if duration_s is not None:
        times = [t for t in times if t <= duration_s]
    if n_requests is not None:
        times = times[:n_requests]
    return times


def sample_mix(
    mix: Sequence[Tuple[Scenario, float]],
    n: int,
    rng: Optional[np.random.Generator] = None,
) -> List[Scenario]:
    """Draw ``n`` per-request scenarios from a weighted mix (reproducibly).

    Weights need not be normalised; they must be non-negative with a
    positive sum.  A single-entry mix short-circuits to a constant stream.
    """

    if not mix:
        raise ValueError("mix must contain at least one (scenario, weight) entry")
    scenarios = [s for s, _ in mix]
    weights = np.asarray([float(w) for _, w in mix], dtype=np.float64)
    if (weights < 0).any() or weights.sum() <= 0:
        raise ValueError("mix weights must be non-negative with a positive sum")
    if len(mix) == 1:
        return [scenarios[0]] * n
    if rng is None:
        rng = np.random.default_rng(0)
    picks = rng.choice(len(scenarios), size=n, p=weights / weights.sum())
    return [scenarios[int(i)] for i in picks]
