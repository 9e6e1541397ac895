"""Metrics of a simulated serving run: latency, utilisation, queues, energy.

The simulator produces raw material — per-request timestamps and
time-weighted occupancy integrals — and this module condenses it into the
:class:`SimReport` the CLI, benchmarks and tests consume:

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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.report import csv_text, json_safe
from ..fpga.device import ResourceVector
from ..fpga.power import PowerModelConfig, pl_power_kernel

__all__ = [
    "LatencyStats",
    "QuantileSketch",
    "SimReport",
    "latency_stats",
    "energy_summary",
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


def latency_stats(samples: Sequence[float], qs: Sequence[int] = PERCENTILES) -> LatencyStats:
    """Percentile summary of a sample set.

    An empty sample set (e.g. a warm-up window covering the whole run) gives
    ``count == 0`` and NaN for every statistic — "no data", not "zero
    latency".  :meth:`SimReport.as_dict` maps the NaNs to JSON ``null``.
    """

    if not len(samples):
        nan = float("nan")
        return LatencyStats(0, nan, nan, nan, {int(q): nan for q in qs})
    arr = np.asarray(samples, dtype=np.float64)
    pct = np.percentile(arr, list(qs))
    return LatencyStats(
        count=int(arr.size),
        mean=float(arr.mean()),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        percentiles={int(q): float(v) for q, v in zip(qs, pct)},
    )


#: Default guaranteed relative error of a spilled sketch (0.5 %, well inside
#: the 1 % conformance bar pinned by ``tests/sim/test_sketch.py``).
DEFAULT_RELATIVE_ERROR = 0.005

#: Samples buffered exactly before a sketch spills to log-spaced bins.
DEFAULT_EXACT_THRESHOLD = 4096


class QuantileSketch:
    """A mergeable streaming quantile sketch with bounded memory.

    The P²-style estimator the fleet simulator needs: day-length traces at
    millions of requests cannot store every latency, so the sketch keeps
    log-spaced bins (DDSketch-style) once the stream outgrows a small exact
    buffer.  Three properties make it safe to put on the nominal path:

    * **Exact until it matters.**  The first ``exact_threshold`` samples are
      buffered verbatim and quantiles delegate to :func:`latency_stats`
      (``np.percentile``) — small runs, i.e. every existing test and every
      interactive ``sim`` invocation, are *bit-identical* to the stored-array
      path.  ``exact=True`` pins this mode forever (the escape hatch).
    * **Guaranteed error when spilled.**  Bins grow geometrically by
      ``gamma = (1 + relative_error)**2`` and report their geometric
      midpoint, so every sample's representative is within a factor
      ``sqrt(gamma) = 1 + relative_error`` of its true value.  Quantiles
      replicate ``np.percentile``'s linear interpolation over the binned
      order statistics: with rank ``r = q/100 * (n - 1)``, the estimate
      interpolates the representatives of order statistics ``floor(r)`` and
      ``ceil(r)`` — a convex combination of two values each within
      ``relative_error`` of the truth stays within ``relative_error`` of the
      interpolated truth (all samples are non-negative).
    * **Merge-order invariance.**  Merging adds integer bin counts
      (commutative and associative) or concatenates exact buffers, so shard
      sketches merged in any order yield identical quantiles — the property
      the shared-nothing fleet shards rely on.

    Memory is O(``exact_threshold`` + bins actually touched); a spilled
    sketch covering twelve decades of seconds uses ~2800 bins.
    """

    __slots__ = (
        "relative_error",
        "exact_threshold",
        "min_positive",
        "count",
        "_sum",
        "_min",
        "_max",
        "_samples",
        "_bins",
        "_log_gamma",
        "_log_min",
    )

    def __init__(
        self,
        relative_error: float = DEFAULT_RELATIVE_ERROR,
        exact_threshold: Optional[int] = DEFAULT_EXACT_THRESHOLD,
        exact: bool = False,
        min_positive: float = 1e-12,
    ) -> None:
        if not 0.0 < relative_error < 1.0:
            raise ValueError(f"relative_error must be in (0, 1) (got {relative_error})")
        if min_positive <= 0.0:
            raise ValueError(f"min_positive must be positive (got {min_positive})")
        if exact:
            exact_threshold = None  # never spill
        elif exact_threshold is not None and exact_threshold < 0:
            raise ValueError("exact_threshold must be non-negative (or None for never-spill)")
        self.relative_error = float(relative_error)
        self.exact_threshold = exact_threshold
        self.min_positive = float(min_positive)
        self.count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._samples: Optional[List[float]] = []
        self._bins: Optional[Dict[int, int]] = None
        gamma = (1.0 + self.relative_error) ** 2
        self._log_gamma = math.log(gamma)
        self._log_min = math.log(self.min_positive)
        if exact_threshold == 0:
            self._spill()

    # -- ingest ------------------------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        """Whether quantiles still come from the verbatim sample buffer."""

        return self._samples is not None

    @property
    def samples(self) -> Optional[Tuple[float, ...]]:
        """The exact buffer (``None`` once spilled) — the reference oracle."""

        return tuple(self._samples) if self._samples is not None else None

    @property
    def bins_used(self) -> int:
        return len(self._bins) if self._bins is not None else 0

    def insert(self, value: float) -> None:
        v = float(value)
        if not (v >= 0.0) or math.isinf(v):  # rejects NaN, negatives and inf
            raise ValueError(f"sketch values must be finite and non-negative (got {value!r})")
        self.count += 1
        self._sum += v
        if v < self._min:
            self._min = v
        if v > self._max:
            self._max = v
        if self._samples is not None:
            self._samples.append(v)
            if self.exact_threshold is not None and len(self._samples) > self.exact_threshold:
                self._spill()
        else:
            key = self._key(v)
            self._bins[key] = self._bins.get(key, 0) + 1

    def extend(self, values: Sequence[float]) -> None:
        for v in values:
            self.insert(v)

    # -- binning -----------------------------------------------------------------------

    def _key(self, v: float) -> int:
        """Bin index: 0 collects values below ``min_positive`` (reported as 0)."""

        if v < self.min_positive:
            return 0
        return max(1, int((math.log(v) - self._log_min) / self._log_gamma) + 1)

    def _representative(self, key: int) -> float:
        if key == 0:
            return 0.0
        # Geometric midpoint of [min_positive * gamma^(k-1), * gamma^k),
        # computed in log space so huge keys cannot overflow.
        return math.exp(self._log_min + (key - 0.5) * self._log_gamma)

    def _spill(self) -> None:
        bins: Dict[int, int] = {}
        for v in self._samples or ():
            key = self._key(v)
            bins[key] = bins.get(key, 0) + 1
        self._samples = None
        self._bins = bins

    # -- merge -------------------------------------------------------------------------

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into this sketch (``other`` is left untouched).

        Spilled ⊕ anything is spilled; two exact sketches stay exact unless
        the combined buffer exceeds this sketch's threshold.  Bin counts are
        integers, so the merged quantiles are identical for any merge order.
        """

        if (other.relative_error, other.min_positive) != (self.relative_error, self.min_positive):
            raise ValueError(
                "cannot merge sketches with different resolutions "
                f"(relative_error {self.relative_error} vs {other.relative_error}, "
                f"min_positive {self.min_positive} vs {other.min_positive})"
            )
        self.count += other.count
        self._sum += other._sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        other_samples = other._samples
        if self._samples is not None and other_samples is not None:
            self._samples.extend(other_samples)
            if self.exact_threshold is not None and len(self._samples) > self.exact_threshold:
                self._spill()
            return self
        if self._samples is not None:
            self._spill()
        if other_samples is not None:
            for v in other_samples:
                key = self._key(v)
                self._bins[key] = self._bins.get(key, 0) + 1
        else:
            for key, n in other._bins.items():
                self._bins[key] = self._bins.get(key, 0) + n
        return self

    # -- quantiles ---------------------------------------------------------------------

    def percentile(self, q: float) -> float:
        return self.percentiles([q])[0]

    def percentiles(self, qs: Sequence[float]) -> List[float]:
        """Estimates of ``np.percentile(values, qs)`` (NaN when empty)."""

        if self.count == 0:
            return [float("nan")] * len(qs)
        if self._samples is not None:
            arr = np.asarray(self._samples, dtype=np.float64)
            return [float(v) for v in np.percentile(arr, list(qs))]
        if self._min == self._max:
            return [self._min] * len(qs)
        n = self.count
        ranks: List[Tuple[int, float]] = []
        wanted: List[int] = []
        for q in qs:
            if not 0.0 <= q <= 100.0:
                raise ValueError(f"percentile must be in [0, 100] (got {q})")
            r = (q / 100.0) * (n - 1)
            lo, hi = int(math.floor(r)), int(math.ceil(r))
            ranks.append((lo, r - lo))
            wanted.extend((lo, hi))
        order_stats = self._order_statistics(sorted(set(wanted)))
        out: List[float] = []
        for lo, frac in ranks:
            a = order_stats[lo]
            b = order_stats[lo + 1] if frac else a
            est = a + frac * (b - a)
            # Clamping to the tracked extremes only moves the estimate
            # toward the truth (every true order statistic lies in
            # [min, max]) and makes p0/p100 exact.
            out.append(min(max(est, self._min), self._max))
        return out

    def _order_statistics(self, indices: Sequence[int]) -> Dict[int, float]:
        """Representatives of the given 0-based order statistics (one bin walk)."""

        out: Dict[int, float] = {}
        it = iter(indices)
        target = next(it, None)
        seen = 0
        for key in sorted(self._bins):
            seen += self._bins[key]
            while target is not None and target < seen:
                out[target] = self._representative(key)
                target = next(it, None)
            if target is None:
                break
        # The extremes are tracked exactly; substituting them makes p0 and
        # p100 error-free (and tightens every interpolation touching them).
        if 0 in out:
            out[0] = self._min
        if self.count - 1 in out:
            out[self.count - 1] = self._max
        return out

    # -- summary -----------------------------------------------------------------------

    @property
    def mean(self) -> float:
        return self._sum / self.count if self.count else float("nan")

    def stats(self, qs: Sequence[int] = PERCENTILES) -> LatencyStats:
        """The :class:`LatencyStats` view of the stream.

        On the exact path this delegates to :func:`latency_stats` over the
        verbatim buffer — bit-identical to the stored-array code it replaces.
        """

        if self.count == 0:
            return latency_stats([], qs)
        if self._samples is not None:
            return latency_stats(self._samples, qs)
        pct = self.percentiles(list(qs))
        return LatencyStats(
            count=self.count,
            mean=self.mean,
            minimum=self._min,
            maximum=self._max,
            percentiles={int(q): v for q, v in zip(qs, pct)},
        )


def energy_summary(
    horizon_s: float,
    ps_busy_core_seconds: float,
    ps_cores: int,
    replica_resources: ResourceVector,
    n_replicas: int,
    completed: int,
    config: Optional[PowerModelConfig] = None,
    replica_downtime_s: float = 0.0,
) -> Dict[str, float]:
    """Energy of the run, with the analytic power model's constants.

    The PS subsystem draws ``ps_active_w`` scaled by its mean core
    occupancy and ``ps_idle_w`` for the remainder (with one core this is
    exactly the analytic model's busy/idle split); each PL replica draws its
    static + dynamic power for the whole horizon.  ``replica_downtime_s``
    (summed across replicas) credits back the power a dead replica did not
    draw — a failed accelerator is modelled as fully unpowered.
    """

    cfg = config or PowerModelConfig()
    busy_equivalent = ps_busy_core_seconds / ps_cores if ps_cores else 0.0
    ps_j = cfg.ps_active_w * busy_equivalent + cfg.ps_idle_w * max(
        0.0, horizon_s - busy_equivalent
    )
    pl_w = float(pl_power_kernel(replica_resources.dsp, replica_resources.bram, cfg))
    pl_j = n_replicas * pl_w * horizon_s
    if replica_downtime_s:
        pl_j -= pl_w * replica_downtime_s
    total = ps_j + pl_j
    return {
        "ps_energy_J": ps_j,
        "pl_energy_J": pl_j,
        "total_energy_J": total,
        # None (JSON null) when nothing completed — inf is not valid JSON.
        "energy_per_request_J": total / completed if completed else None,
        "average_power_W": total / horizon_s if horizon_s > 0 else 0.0,
    }


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


@dataclass(frozen=True)
class SimReport:
    """Structured outcome of one serving simulation."""

    scenario: Dict[str, object]
    requests: Dict[str, int]
    horizon_s: float
    throughput_rps: float
    latency: LatencyStats
    wait: LatencyStats
    service_s: float
    utilization: Dict[str, object]
    queue: Dict[str, float]
    energy: Dict[str, float]
    bus: Dict[str, float]
    events_processed: int
    batch_sizes: Dict[str, float] = field(default_factory=dict)
    #: SLO-violation summary (:func:`slo_summary`), when the scenario set one.
    slo: Optional[Dict[str, object]] = None
    #: Fault-injection record (modes, injection log, re-dispatch and fallback
    #: counters, downtime) — only present on fault runs.
    faults: Optional[Dict[str, object]] = None
    #: Human-readable caveat, e.g. when warm-up trimming left nothing measured.
    note: Optional[str] = None
    #: The streaming sketches behind ``latency``/``wait`` — carried so the
    #: fleet layer can merge per-board distributions without re-simulating.
    #: Excluded from serialisation and from report equality.
    latency_sketch: Optional[QuantileSketch] = field(default=None, repr=False, compare=False)
    wait_sketch: Optional[QuantileSketch] = field(default=None, repr=False, compare=False)

    # -- serialisation -----------------------------------------------------------------

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

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "scenario": dict(self.scenario),
            "reproducibility": self.reproducibility,
            "requests": dict(self.requests),
            "horizon_s": self.horizon_s,
            "throughput_rps": self.throughput_rps,
            "service_s": self.service_s,
            "latency": self.latency.as_dict(),
            "wait": self.wait.as_dict(),
            "utilization": {
                k: (list(v) if isinstance(v, (list, tuple)) else v)
                for k, v in self.utilization.items()
            },
            "queue": dict(self.queue),
            "energy": dict(self.energy),
            "bus": dict(self.bus),
            "batch_sizes": dict(self.batch_sizes),
            "events_processed": self.events_processed,
        }
        if self.slo is not None:
            out["slo"] = dict(self.slo)
        if self.faults is not None:
            out["faults"] = dict(self.faults)
        if self.note is not None:
            out["note"] = self.note
        return json_safe(out)

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

    def to_csv(self) -> str:
        """Header + one data row (the ``sim --format csv`` output)."""

        row = self.flat_dict()
        return csv_text([row.keys(), row.values()])

    # -- rendering ---------------------------------------------------------------------

    def render(self) -> str:
        """Multi-section plain-text report (the ``sim`` subcommand output)."""

        lat = self.latency
        util = self.utilization
        lines: List[str] = []
        s = self.scenario
        lines.append(
            f"Simulated serving: {s['model']}-{s['depth']} on {s['board']} "
            f"({s['replicas']} replica(s), policy={s['policy']}, arrivals={s['arrival']})"
        )
        lines.append("[requests]")
        lines.append(f"  offered            : {self.requests['offered']}")
        lines.append(f"  completed          : {self.requests['completed']}")
        lines.append(f"  horizon            : {self.horizon_s:.4g} s")
        lines.append(f"  throughput         : {self.throughput_rps:.4g} req/s")
        lines.append("[latency]")
        lines.append(f"  service (no load)  : {self.service_s:.6g} s")
        lines.append(f"  mean               : {lat.mean:.6g} s")
        for q in sorted(lat.percentiles):
            lines.append(f"  {f'p{q}'.ljust(19)}: {lat.percentiles[q]:.6g} s")
        lines.append(f"  max                : {lat.maximum:.6g} s")
        lines.append(f"  mean queueing wait : {self.wait.mean:.6g} s")
        lines.append("[utilization]")
        lines.append(f"  ps cores           : {100.0 * util['ps']:.1f} %")
        lines.append(f"  axi bus            : {100.0 * util['axi']:.1f} %")
        for i, u in enumerate(util["accelerators"]):
            lines.append(f"  pl replica {i:<8}: {100.0 * u:.1f} %")
        lines.append("[queue]")
        lines.append(f"  mean backlog       : {self.queue['mean_depth']:.3g}")
        lines.append(f"  peak backlog       : {self.queue['peak_depth']:.0f}")
        if self.batch_sizes:
            lines.append(
                f"  batches            : {self.batch_sizes['count']:.0f} "
                f"(mean size {self.batch_sizes['mean']:.2f}, max {self.batch_sizes['max']:.0f})"
            )
        lines.append("[energy]")
        lines.append(f"  PS                 : {self.energy['ps_energy_J']:.6g} J")
        lines.append(f"  PL                 : {self.energy['pl_energy_J']:.6g} J")
        per_request = self.energy["energy_per_request_J"]
        lines.append(
            "  per request        : "
            + (f"{per_request:.6g} J" if per_request is not None else "n/a (0 completed)")
        )
        lines.append(f"  average power      : {self.energy['average_power_W']:.6g} W")
        if self.slo is not None:
            frac = self.slo["violation_fraction"]
            lines.append("[slo]")
            lines.append(f"  threshold          : {self.slo['slo_s']:.6g} s")
            lines.append(
                f"  violations         : {self.slo['violations']} of "
                f"{self.slo['measured']} measured"
                + (f" ({100.0 * frac:.1f} %)" if np.isfinite(frac) else " (n/a)")
            )
        if self.faults is not None:
            f = self.faults
            lines.append("[faults]")
            for entry in f.get("injections", []):
                cleared = entry.get("cleared_at")
                lines.append(
                    f"  {entry['mode']:<19}: injected at {entry['t_inject']:.4g} s"
                    + (f", cleared at {cleared:.4g} s" if cleared is not None else ", permanent")
                )
            lines.append(f"  re-dispatched      : {f.get('redispatched', 0)}")
            lines.append(f"  ps fallback        : {f.get('ps_fallback_served', 0)}")
            lines.append(f"  corrupted requests : {f.get('corrupted_requests', 0)}")
            lines.append(f"  replica downtime   : {f.get('replica_downtime_s', 0.0):.4g} s")
        repro = self.reproducibility
        lines.append(
            f"[reproducibility] seed={repro['seed']}  warmup={repro['warmup_s']:.4g} s  "
            f"replicas={repro['replicas']}  ps_cores={repro['ps_cores']}"
            + (f"  fault_seed={repro['fault_seed']}" if "fault_seed" in repro else "")
        )
        if self.note is not None:
            lines.append(f"[note] {self.note}")
        lines.append(f"[engine] {self.events_processed} events processed")
        return "\n".join(lines)
