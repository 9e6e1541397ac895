"""Metrics of a simulated serving run: latency, utilisation, queues, energy.

The simulator produces raw material — per-request timestamps and
time-weighted occupancy integrals — and this module condenses it into the
:class:`SimReport` the CLI, benchmarks and tests consume.  Its
:class:`ServingReport` base and its energy ledger (:func:`ps_energy_j`,
:func:`energy_section`) also back the fleet report:

* latency percentiles (p50/p90/p95/p99) over the completed requests'
  sojourn times, plus the queueing-wait share;
* utilisation of the PS cores, the AXI bus and every PL replica;
* queue statistics (time-weighted mean and peak dispatcher backlog);
* energy, priced with the *same* constants as the analytic
  :class:`~repro.fpga.power.PowerModel`: the PS draws active power while a
  core is busy and idle power otherwise, and every instantiated PL replica
  burns static + dynamic power for the whole run (its clock never gates).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.report import Report, json_safe
from ..platform import PowerProfile, ResourceVector
from ..fpga.power import pl_power_kernel

__all__ = [
    "LatencyStats",
    "QuantileSketch",
    "ServingReport",
    "SimReport",
    "latency_stats",
    "energy_section",
    "energy_summary",
    "ps_energy_j",
    "slo_summary",
    "windowed_mean",
]

#: Percentiles reported for every latency distribution.
PERCENTILES: Tuple[int, ...] = (50, 90, 95, 99)


@dataclass(frozen=True)
class LatencyStats:
    """Summary of a latency (or wait-time) sample set, in seconds."""

    count: int
    mean: float
    minimum: float
    maximum: float
    percentiles: Dict[int, float]

    def as_dict(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            "count": self.count,
            "mean_s": self.mean,
            "min_s": self.minimum,
            "max_s": self.maximum,
        }
        for q, value in self.percentiles.items():
            out[f"p{q}_s"] = value
        return out


def windowed_mean(integral_end: float, integral_start: float, window_s: float) -> float:
    """Time-weighted mean level over a measurement window.

    The warm-up trimming primitive: monitors accumulate occupancy integrals
    from t = 0, so the mean over ``[warmup_s, horizon]`` is the difference
    of the final integral and the probe's reading at ``warmup_s``, over the
    window span.  An empty window yields NaN: nothing was measured, and a
    mean of 0 would be indistinguishable from a genuinely idle system.
    """

    if window_s <= 0:
        return float("nan")
    return (integral_end - integral_start) / window_s


def latency_stats(samples: Sequence[float]) -> LatencyStats:
    """Percentile summary of a sample set.

    An empty sample set (e.g. a warm-up window covering the whole run) gives
    ``count == 0`` and NaN for every statistic — "no data", not "zero
    latency".  :meth:`SimReport.as_dict` maps the NaNs to JSON ``null``.
    """

    if not len(samples):
        nan = float("nan")
        return LatencyStats(0, nan, nan, nan, {q: nan for q in PERCENTILES})
    arr = np.asarray(samples, dtype=np.float64)
    pct = np.percentile(arr, list(PERCENTILES))
    return LatencyStats(
        count=int(arr.size),
        mean=float(arr.mean()),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        percentiles={q: float(v) for q, v in zip(PERCENTILES, pct)},
    )


class QuantileSketch:
    """Every sample of a latency (or wait) stream, kept verbatim.

    Samples go into an ``array('d')`` buffer, 8 bytes each: a report keeps a
    latency and a wait stream, so storage costs 16 bytes per measured
    request.  :meth:`stats` is :func:`latency_stats` over the buffer, so every
    percentile is exact, and :meth:`merge` concatenates buffers; shard
    results merged in a fixed (ascending cell) order therefore give the
    same report for any shard count.  It keeps no running sum (a reader
    sums :attr:`samples`); the fleet's ``ClassCell.served`` checks values
    against :attr:`RULE` itself and appends to :attr:`samples` directly.

    The class keeps its historical name (it once spilled into log-spaced
    bins past a small exact buffer), :meth:`insert` and :meth:`stats`,
    because perfbench's serve workload times those two under this name; a
    rename has to change those patch targets in the same commit.
    """

    __slots__ = ("samples",)
    RULE = "sketch values must be finite and non-negative (got {!r})"

    def __init__(self) -> None:
        self.samples = array("d")

    def insert(self, value: float) -> None:
        if not 0.0 <= value < math.inf:  # rejects NaN, negatives and inf
            raise ValueError(self.RULE.format(value))
        self.samples.append(value)

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Append ``other``'s samples to this sketch (``other`` is left untouched)."""

        self.samples.extend(other.samples)
        return self

    def stats(self) -> LatencyStats:
        """The :class:`LatencyStats` view of the stream."""

        return latency_stats(self.samples)


def ps_energy_j(
    ps_active_w: float, ps_idle_w: float, busy_core_seconds: float, cores: int, seconds: float
) -> float:
    """PS joules over ``seconds``: active watts for the mean core occupancy
    (busy core-seconds over ``cores``), idle watts for the remainder.  With
    one core this is exactly the analytic model's busy/idle split."""

    busy = busy_core_seconds / cores if cores else 0.0
    return ps_active_w * busy + ps_idle_w * max(0.0, seconds - busy)


def energy_section(
    ps_j: float, pl_j: float, completed: int, seconds: float
) -> Dict[str, Optional[float]]:
    """The five-key energy section every serving report carries.

    ``energy_per_request_J`` is ``None`` (JSON null) when nothing completed,
    and ``average_power_W`` is ``None`` over an empty window: nothing was
    measured.
    """

    total = ps_j + pl_j
    return {
        "ps_energy_J": ps_j,
        "pl_energy_J": pl_j,
        "total_energy_J": total,
        "energy_per_request_J": total / completed if completed else None,
        "average_power_W": total / seconds if seconds > 0 else None,
    }


def energy_summary(
    horizon_s: float,
    ps_busy_core_seconds: float,
    ps_cores: int,
    replica_resources: ResourceVector,
    n_replicas: int,
    completed: int,
    power: PowerProfile,
    replica_downtime_s: float = 0.0,
) -> Dict[str, Optional[float]]:
    """Energy of one simulated board, priced with its ``power`` profile.

    The PS is priced by :func:`ps_energy_j`; each PL replica draws its
    static + dynamic power for the whole horizon.  ``replica_downtime_s``
    (summed across replicas) credits back the power a dead replica did not
    draw — a failed accelerator is modelled as fully unpowered.
    """

    ps_j = ps_energy_j(
        power.ps_active_w, power.ps_idle_w, ps_busy_core_seconds, ps_cores, horizon_s
    )
    pl_w = float(pl_power_kernel(replica_resources.dsp, replica_resources.bram, power))
    pl_j = n_replicas * pl_w * horizon_s
    if replica_downtime_s:
        pl_j -= pl_w * replica_downtime_s
    return energy_section(ps_j, pl_j, completed, horizon_s)


def slo_summary(requests: Sequence[object], slo_s: float) -> Dict[str, object]:
    """Fraction of measured requests violating a latency SLO.

    A request violates when its sojourn time exceeds ``slo_s`` *or* its
    activations were corrupted in flight (a fast wrong answer is still a
    violation).  With nothing measured, the fraction is NaN.
    """

    if slo_s <= 0:
        raise ValueError(f"slo_s must be positive (got {slo_s})")
    n = len(requests)
    violations = sum(1 for r in requests if r.latency > slo_s or r.corrupted)
    return {
        "slo_s": slo_s,
        "measured": n,
        "violations": violations,
        "violation_fraction": violations / n if n else float("nan"),
    }


def text_row(label: object, text: object) -> str:
    """One ``  label              : text`` line of a rendered report."""

    return f"  {label:<19}: {text}"


@dataclass(frozen=True, kw_only=True)
class ServingReport(Report):
    """What the sim and fleet reports share: traffic counts, the latency and
    queueing-wait distributions, the energy section and the event count.

    A subclass names its JSON keys in order (``JSON_KEYS``; a field that is
    ``None`` is left out) and the request counters its text shows
    (``COUNTED``); its ``render`` passes only its own sections to
    :meth:`_render`, which writes the shared ``[requests]``, ``[latency]``,
    ``[energy]`` and ``[engine]`` lines.
    """

    JSON_KEYS: ClassVar[Tuple[str, ...]]
    COUNTED: ClassVar[Tuple[str, ...]]

    scenario: Dict[str, object]
    requests: Dict[str, int]
    horizon_s: float
    throughput_rps: float
    latency: LatencyStats
    wait: LatencyStats
    energy: Dict[str, Optional[float]]
    events_processed: int
    #: The sample stores behind ``latency``/``wait``.  The fleet merges its
    #: cells' per-class buffers, not these; only tests read them back
    #: (``tests/sim/test_warmup.py``, ``tests/fleet/test_fleet_identity.py``)
    #: to check a report's stats and sample order.
    #: Excluded from serialisation and from report equality.
    latency_sketch: Optional[QuantileSketch] = field(default=None, repr=False, compare=False)
    wait_sketch: Optional[QuantileSketch] = field(default=None, repr=False, compare=False)

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for key in self.JSON_KEYS:
            value = getattr(self, key)
            if value is not None:
                out[key] = value.as_dict() if isinstance(value, LatencyStats) else value
        return json_safe(out)

    def _render(
        self, title: str, middle: List[str], tail: List[str], latency_head: Sequence[str] = ()
    ) -> str:
        """The text report: ``title``, the shared ``[requests]`` and ``[latency]``
        sections (``latency_head`` first), the report's own ``middle`` sections,
        ``[energy]``, its own ``tail`` sections and the ``[engine]`` line."""

        lat, energy = self.latency, self.energy
        per_request = energy["energy_per_request_J"]
        power = energy["average_power_W"]
        return "\n".join(
            [
                title,
                "[requests]",
                *(text_row(key, self.requests[key]) for key in self.COUNTED),
                text_row("horizon", f"{self.horizon_s:.4g} s"),
                text_row("throughput", f"{self.throughput_rps:.4g} req/s"),
                "[latency]",
                *latency_head,
                text_row("mean", f"{lat.mean:.6g} s"),
                *(
                    text_row(f"p{q}", f"{lat.percentiles[q]:.6g} s")
                    for q in sorted(lat.percentiles)
                ),
                text_row("max", f"{lat.maximum:.6g} s"),
                text_row("mean queueing wait", f"{self.wait.mean:.6g} s"),
                *middle,
                "[energy]",
                text_row("PS", f"{energy['ps_energy_J']:.6g} J"),
                text_row("PL", f"{energy['pl_energy_J']:.6g} J"),
                text_row(
                    "per request",
                    f"{per_request:.6g} J" if per_request is not None else "n/a (0 completed)",
                ),
                text_row("average power", f"{power:.6g} W" if power is not None else "n/a"),
                *tail,
                f"[engine] {self.events_processed} events processed",
            ]
        )


@dataclass(frozen=True, kw_only=True)
class SimReport(ServingReport):
    """Structured outcome of one serving simulation."""

    JSON_KEYS = (
        "scenario", "reproducibility", "requests", "horizon_s", "throughput_rps", "service_s",
        "latency", "wait", "utilization", "queue", "energy", "bus", "batch_sizes",
        "events_processed", "slo", "faults", "note",
    )
    COUNTED = ("offered", "completed")

    service_s: float
    utilization: Dict[str, object]
    queue: Dict[str, float]
    bus: Dict[str, float]
    batch_sizes: Dict[str, float] = field(default_factory=dict)
    #: SLO-violation summary (:func:`slo_summary`), when the scenario set one.
    slo: Optional[Dict[str, object]] = None
    #: Fault-injection record (modes, injection log, re-dispatch and fallback
    #: counters, downtime) — only present on fault runs.
    faults: Optional[Dict[str, object]] = None
    #: Human-readable caveat, e.g. when warm-up trimming left nothing measured.
    note: Optional[str] = None

    @property
    def reproducibility(self) -> Dict[str, object]:
        """The knobs that make this run bit-reproducible from the artifact:
        RNG seed, resolved warm-up, and resolved replica/core counts (the
        scenario's ``0 = auto`` values are materialised by the runner)."""

        s = self.scenario
        out: Dict[str, object] = {
            "seed": s.get("seed"),
            "warmup_s": s.get("warmup_s"),
            "replicas": s.get("replicas"),
            "ps_cores": s.get("ps_cores"),
        }
        if self.faults is not None:
            out["fault_seed"] = self.faults.get("seed")
        return out

    def flat_dict(self) -> Dict[str, object]:
        """One CSV-safe row (scenario knobs, then scalar metrics).

        Unmeasured (non-finite) values are ``None``, as in :meth:`as_dict`,
        so CSV leaves their cells empty.
        """

        row: Dict[str, object] = dict(self.scenario)
        row.pop("trace", None)
        row.update(
            {
                "offered": self.requests["offered"],
                "completed": self.requests["completed"],
                "horizon_s": self.horizon_s,
                "throughput_rps": self.throughput_rps,
                "service_s": self.service_s,
            }
        )
        for key, value in self.latency.as_dict().items():
            if key != "count":
                row[f"latency_{key}"] = value
        row["wait_mean_s"] = self.wait.mean
        for key in ("ps", "axi", "accelerator_mean"):
            row[f"util_{key}"] = self.utilization[key]
        row.update({f"queue_{k}": v for k, v in self.queue.items()})
        row.update(self.energy)
        if self.slo is not None:
            row["slo_s"] = self.slo["slo_s"]
            row["slo_violation_fraction"] = self.slo["violation_fraction"]
        if self.faults is not None:
            row["fault_redispatched"] = self.faults.get("redispatched", 0)
            row["fault_ps_fallback"] = self.faults.get("ps_fallback_served", 0)
            row["fault_corrupted_requests"] = self.faults.get("corrupted_requests", 0)
            row["fault_replica_downtime_s"] = self.faults.get("replica_downtime_s", 0.0)
        row["events_processed"] = self.events_processed
        return json_safe(row)

    def records(self) -> List[Dict[str, object]]:
        """The CSV view (``sim --format csv``): the one :meth:`flat_dict` row."""

        return [self.flat_dict()]

    def render(self) -> str:
        """Multi-section plain-text report (the ``sim`` subcommand output)."""

        s, util = self.scenario, self.utilization
        middle = [
            "[utilization]",
            text_row("ps cores", f"{100.0 * util['ps']:.1f} %"),
            text_row("axi bus", f"{100.0 * util['axi']:.1f} %"),
            *(text_row(f"pl replica {i:<8}", f"{100.0 * u:.1f} %")
              for i, u in enumerate(util["accelerators"])),
            "[queue]",
            text_row("mean backlog", f"{self.queue['mean_depth']:.3g}"),
            text_row("peak backlog", f"{self.queue['peak_depth']:.0f}"),
        ]
        if self.batch_sizes:
            b = self.batch_sizes
            middle.append(
                text_row(
                    "batches", f"{b['count']:.0f} (mean size {b['mean']:.2f}, max {b['max']:.0f})"
                )
            )
        tail: List[str] = []
        if self.slo is not None:
            frac = self.slo["violation_fraction"]
            tail += [
                "[slo]",
                text_row("threshold", f"{self.slo['slo_s']:.6g} s"),
                text_row(
                    "violations",
                    f"{self.slo['violations']} of {self.slo['measured']} measured"
                    + (f" ({100.0 * frac:.1f} %)" if np.isfinite(frac) else " (n/a)"),
                ),
            ]
        if self.faults is not None:
            f = self.faults
            tail.append("[faults]")
            for entry in f.get("injections", []):
                cleared = entry.get("cleared_at")
                lasts = f", cleared at {cleared:.4g} s" if cleared is not None else ", permanent"
                tail.append(text_row(entry["mode"], f"injected at {entry['t_inject']:.4g} s{lasts}"))
            tail += [
                text_row("re-dispatched", f.get("redispatched", 0)),
                text_row("ps fallback", f.get("ps_fallback_served", 0)),
                text_row("corrupted requests", f.get("corrupted_requests", 0)),
                text_row("replica downtime", f"{f.get('replica_downtime_s', 0.0):.4g} s"),
            ]
        repro = self.reproducibility
        tail.append(
            f"[reproducibility] seed={repro['seed']}  warmup={repro['warmup_s']:.4g} s  "
            f"replicas={repro['replicas']}  ps_cores={repro['ps_cores']}"
            + (f"  fault_seed={repro['fault_seed']}" if "fault_seed" in repro else "")
        )
        if self.note is not None:
            tail.append(f"[note] {self.note}")
        return self._render(
            f"Simulated serving: {s['model']}-{s['depth']} on {s['board']} "
            f"({s['replicas']} replica(s), policy={s['policy']}, arrivals={s['arrival']})",
            middle,
            tail,
            latency_head=[text_row("service (no load)", f"{self.service_s:.6g} s")],
        )
