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
evaluator memoizes its analytic report, the result cache keys it by concrete
type (no collisions with plain scenarios) and the batch engine routes it
through the loop fallback.  ``replicas=0`` means "size from the resource
budget" (resolved by :func:`repro.sim.runner.simulate` via
:func:`repro.sim.policies.max_replicas`).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..api.scenario import Scenario
from .policies import POLICY_NAMES
from .workload import ARRIVAL_KINDS

__all__ = ["SimScenario", "check_traffic"]


def check_traffic(scenario) -> None:
    """Validate the traffic knobs :class:`SimScenario` and the fleet's
    ``FleetScenario`` share, naming the field at fault.

    Rates, horizons and SLOs must be positive and finite (NaN and inf fail
    too).  A trace is stored as a tuple of floats.
    """

    if scenario.arrival not in ARRIVAL_KINDS:
        raise ValueError(
            f"unknown arrival process '{scenario.arrival}'; expected one of {ARRIVAL_KINDS}"
        )
    if scenario.arrival == "trace":
        if not scenario.trace:
            raise ValueError("arrival='trace' needs at least one trace timestamp")
        object.__setattr__(scenario, "trace", tuple(float(t) for t in scenario.trace))
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
    if scenario.n_requests is not None and scenario.n_requests < 1:
        raise ValueError("n_requests must be a positive integer (or None)")
    for name in ("duration_s", "slo_s"):
        value = getattr(scenario, name)
        if value is not None and not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, or None (got {value!r})")


@dataclass(frozen=True)
class SimScenario(Scenario):
    """One serving scenario: a design point under a request workload."""

    #: Arrival process: "deterministic", "poisson" or "trace".
    arrival: str = "poisson"
    #: Mean arrival rate (requests/s) for deterministic/Poisson arrivals.
    arrival_rate_hz: float = 1.0
    #: Number of requests to offer.  ``None`` means "bounded by something
    #: else": the full trace for ``arrival="trace"``, ``duration_s`` when
    #: given, and otherwise a default of 100 (resolved by ``simulate()`` —
    #: not stored here, so ``replace(duration_s=...)`` on a defaulted
    #: scenario is duration-bound rather than silently capped).
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
    #: it.  The FMEA tabulator defaults a missing SLO to twice the no-load
    #: service time (the knee convention of ``examples/serving_study.py``).
    slo_s: Optional[float] = None
    #: Keep every per-request latency verbatim (``np.percentile`` over the
    #: full array) instead of letting the streaming
    #: :class:`~repro.sim.metrics.QuantileSketch` spill to bounded-memory
    #: bins on runs beyond its exact buffer.  Small runs are bit-identical
    #: either way; this is the escape hatch for big runs that must be.
    exact: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        check_traffic(self)
        if not isinstance(self.replicas, int) or self.replicas < 0:
            raise ValueError("replicas must be a non-negative integer (0 = auto-size)")
        if self.policy not in POLICY_NAMES:
            raise ValueError(f"unknown policy '{self.policy}'; expected one of {POLICY_NAMES}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be a positive integer")
        if not isinstance(self.ps_cores, int) or self.ps_cores < 0:
            raise ValueError("ps_cores must be a non-negative integer (0 = the board's cores)")
        if self.dma_channels < 1:
            raise ValueError("dma_channels must be a positive integer")
        if not 0 <= self.warmup_s < math.inf:
            raise ValueError(f"warmup_s must be non-negative and finite (got {self.warmup_s!r})")
        if not isinstance(self.exact, bool):
            raise ValueError("exact must be a boolean")

    # -- views -------------------------------------------------------------------------

    @property
    def design_point(self) -> Scenario:
        """The underlying plain scenario (the analytic models' key)."""

        return Scenario(
            **{f.name: getattr(self, f.name) for f in dataclasses.fields(Scenario)}
        )

    def as_dict(self) -> Dict[str, object]:
        out = super().as_dict()
        out.update(
            {
                "arrival": self.arrival,
                "arrival_rate_hz": self.arrival_rate_hz,
                "n_requests": self.n_requests,
                "duration_s": self.duration_s,
                "trace": list(self.trace) if self.trace is not None else None,
                "replicas": self.replicas,
                "policy": self.policy,
                "batch_size": self.batch_size,
                "seed": self.seed,
                "ps_cores": self.ps_cores,
                "dma_channels": self.dma_channels,
                "warmup_s": self.warmup_s,
                "slo_s": self.slo_s,
                "exact": self.exact,
            }
        )
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimScenario":
        data = dict(data)
        if data.get("trace") is not None:
            data["trace"] = tuple(data["trace"])
        return super().from_dict(data)  # type: ignore[return-value]
