"""The :class:`SimScenario`: a design point *plus* a serving scenario.

A :class:`~repro.api.scenario.Scenario` fixes the hardware/architecture
knobs; a :class:`SimScenario` extends it (same frozen/hashable/validated
contract) with the traffic and system knobs of a multi-request run:

* the arrival process (``arrival``/``arrival_rate_hz``/``trace``) and its
  stop conditions (``n_requests``, ``duration_s``),
* the serving system (``replicas``, ``policy``, ``batch_size``,
  ``ps_cores``, ``dma_channels``),
* the measurement (``warmup_s`` trims the transient start-up from the
  reported metrics),
* the ``seed`` making stochastic runs reproducible.

Being a Scenario subclass, it flows through the existing machinery: the
evaluator memoizes its analytic report, the batch engine evaluates it from
its :class:`Scenario` fields, and ``as_dict`` serialises it by field name.
``replicas=0`` means "size from the resource budget" (resolved by
:func:`repro.sim.runner.simulate` via :func:`repro.sim.policies.size_replicas`).
A rate-driven run with neither stop condition offers
:attr:`SimScenario.DEFAULT_REQUESTS` requests (:func:`request_cap`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple

from ..api.scenario import Scenario, check_count, check_seed, shared_fields
from .policies import POLICY_NAMES
from .workload import ARRIVAL_KINDS

__all__ = ["DEFAULT_SLO_FACTOR", "SimScenario", "check_traffic", "request_cap"]

#: A run with no explicit SLO is judged against this multiple of its no-load
#: service time (the latency-knee convention of ``examples/serving_study.py``);
#: the FMEA tabulator and the fleet's latency classes both apply it.
DEFAULT_SLO_FACTOR = 2.0


def check_traffic(scenario) -> None:
    """Validate the traffic knobs :class:`SimScenario` and the fleet's
    ``FleetScenario`` share, naming the field at fault.

    Rates, horizons and SLOs must be positive and finite (NaN and inf fail
    too), ``n_requests`` a positive integer and the seed a non-negative
    integer, both stored as plain ints.  A trace is stored as a tuple of
    floats, which must be finite, sorted and non-negative (requests are
    served in trace order); this is the one check of a trace.
    """

    object.__setattr__(scenario, "seed", check_seed("seed", scenario.seed))

    if scenario.arrival not in ARRIVAL_KINDS:
        raise ValueError(
            f"unknown arrival process '{scenario.arrival}'; expected one of {ARRIVAL_KINDS}"
        )
    if scenario.arrival == "trace":
        if not scenario.trace:
            raise ValueError("arrival='trace' needs at least one trace timestamp")
        trace = tuple(float(t) for t in scenario.trace)
        if not all(0 <= t < math.inf for t in trace) or list(trace) != sorted(trace):
            raise ValueError("trace timestamps must be finite, sorted and non-negative")
        object.__setattr__(scenario, "trace", trace)
    else:
        if scenario.trace is not None:
            raise ValueError(
                f"a trace was given but arrival='{scenario.arrival}'; "
                "pass arrival='trace' to replay it"
            )
        if not 0 < scenario.arrival_rate_hz < math.inf:
            raise ValueError(
                f"arrival_rate_hz must be positive and finite (got {scenario.arrival_rate_hz!r})"
            )
    if scenario.n_requests is not None:
        n_requests = check_count("n_requests", scenario.n_requests, 1, " (or None)")
        object.__setattr__(scenario, "n_requests", n_requests)
    for name in ("duration_s", "slo_s"):
        value = getattr(scenario, name)
        if value is not None and not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, or None (got {value!r})")


def request_cap(scenario) -> Optional[int]:
    """How many requests a :class:`SimScenario` or ``FleetScenario`` offers
    at most: ``n_requests``, else the type's ``DEFAULT_REQUESTS`` for a
    rate-driven run with no ``duration_s``.  Trace- and duration-bounded
    runs are never silently capped (``None``).
    """

    if scenario.n_requests is None and scenario.arrival != "trace" and scenario.duration_s is None:
        return scenario.DEFAULT_REQUESTS
    return scenario.n_requests


@dataclass(frozen=True)
class SimScenario(Scenario):
    """One serving scenario: a design point under a request workload."""

    #: Requests a rate-driven run offers when no stop condition is set.
    DEFAULT_REQUESTS: ClassVar[int] = 100

    #: Arrival process: "deterministic", "poisson" or "trace".
    arrival: str = "poisson"
    #: Mean arrival rate (requests/s) for deterministic/Poisson arrivals.
    arrival_rate_hz: float = 1.0
    #: Number of requests to offer.  ``None`` means "bounded by something
    #: else": the full trace for ``arrival="trace"``, ``duration_s`` when
    #: given, and otherwise :attr:`DEFAULT_REQUESTS` (resolved at run time
    #: by :func:`request_cap` — not stored here, so
    #: ``replace(duration_s=...)`` on a defaulted scenario is duration-bound
    #: rather than silently capped).
    n_requests: Optional[int] = None
    #: Stop offering new arrivals after this much simulated time (optional).
    duration_s: Optional[float] = None
    #: Explicit arrival timestamps for ``arrival="trace"``.
    trace: Optional[Tuple[float, ...]] = None
    #: PL accelerator replicas; 0 sizes from the device resource budget.
    replicas: int = 1
    #: Dispatch policy: "fifo", "batched" or "round_robin".
    policy: str = "fifo"
    #: Maximum invocations a replica drains at once (``policy="batched"``).
    batch_size: int = 4
    #: PRNG seed for Poisson arrivals and mix sampling.
    seed: int = 0
    #: PS cores available to software phases; 0 uses the board's core count.
    ps_cores: int = 1
    #: Concurrent DMA bursts the AXI interconnect sustains.
    dma_channels: int = 1
    #: Measurement warm-up: requests arriving before this simulated time are
    #: dropped from latency percentiles, and utilisation / queue / energy
    #: metrics are computed over ``[warmup_s, horizon]`` only (transient
    #: start-up behaviour trimmed).  0 measures the whole run.
    warmup_s: float = 0.0
    #: Per-request latency SLO (seconds).  When set, the report carries an
    #: SLO-violation summary (late or corrupted completions); ``None`` skips
    #: it.  The FMEA tabulator defaults a missing SLO to
    #: :data:`DEFAULT_SLO_FACTOR` times the no-load service time.
    slo_s: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        check_traffic(self)
        object.__setattr__(
            self, "replicas", check_count("replicas", self.replicas, 0, " (0 = auto-size)")
        )
        if self.policy not in POLICY_NAMES:
            raise ValueError(f"unknown policy '{self.policy}'; expected one of {POLICY_NAMES}")
        for name, minimum, note in (
            ("batch_size", 1, ""),
            ("ps_cores", 0, " (0 = the board's cores)"),
            ("dma_channels", 1, ""),
        ):
            object.__setattr__(self, name, check_count(name, getattr(self, name), minimum, note))
        if not 0 <= self.warmup_s < math.inf:
            raise ValueError(f"warmup_s must be non-negative and finite (got {self.warmup_s!r})")

    # -- views -------------------------------------------------------------------------

    @property
    def design_point(self) -> Scenario:
        """The underlying plain scenario (the analytic models' key)."""

        return Scenario(**shared_fields(self, Scenario))
