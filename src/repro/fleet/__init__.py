"""Fleet-scale serving: heterogeneous multi-board clusters behind a balancer.

The :mod:`repro.sim` package answers "how does *one* board behave under
load?"; this package scales the question to the paper's deployment story —
racks of low-cost FPGA boards serving classed traffic:

* :class:`FleetScenario` — the cluster design point: a
  :class:`BoardGroup` inventory drawn from the :mod:`repro.platform`
  registry, weighted :class:`TrafficClass` slices, balancer routing,
  SLO-aware admission control, reactive autoscaling priced per board from
  its :class:`~repro.platform.device.PowerProfile`, and shared-nothing
  ``cells``;
* :func:`simulate_fleet` — runs the cells (optionally sharded over a
  process pool — shard count never changes the numbers) and merges their
  per-request latency samples (:class:`~repro.sim.metrics.QuantileSketch`)
  and counters into one :class:`FleetReport` with exact percentiles.

>>> from repro.fleet import FleetScenario, BoardGroup, simulate_fleet
>>> report = simulate_fleet(FleetScenario(
...     boards=(BoardGroup("PYNQ-Z2", 8), BoardGroup("ZCU104", 4)),
...     arrival_rate_hz=200.0, duration_s=600.0, cells=4,
... ), shards=4)
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".autoscale": ("AutoscaleController",),
        ".balancer": ("BATCH_SPILL_FACTOR", "Balancer", "BoardServer"),
        ".cluster": (
            "ADMISSION_NAMES", "CLASS_KINDS", "FIDELITY_NAMES", "ROUTING_NAMES", "BoardGroup",
            "FleetScenario", "TrafficClass", "parse_board_groups", "parse_traffic_classes",
        ),
        ".report": ("BoardCell", "CellResult", "ClassCell", "FleetReport", "merge_cells"),
        ".runner": ("resolve_board_replicas", "resolve_slos", "run_cell"),
        ".shard": ("simulate_fleet",),
    },
)
