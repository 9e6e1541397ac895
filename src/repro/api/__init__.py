"""Unified scenario/evaluator API: one entry point for every analysis.

The flow is ``Scenario -> Evaluator -> Result``:

>>> from repro.api import Scenario, Evaluator
>>> ev = Evaluator()
>>> result = ev.evaluate(Scenario(model="rODENet-3", depth=56, n_units=16))
>>> round(result.timing["overall_speedup"], 2)
2.66

and design-space grids run through :func:`sweep`:

>>> from repro.api import scenario_grid, sweep
>>> results = sweep(scenario_grid(models=("rODENet-3",), depths=(20, 56),
...                               n_units=(8, 16)))
>>> len(results)
4

Large grids run through the vectorized batch engine, which computes the same
models over whole scenario axes as NumPy arrays (bit-identical results, one
to two orders of magnitude faster):

>>> from repro.api import sweep_batch
>>> table = sweep_batch(scenario_grid(models=("rODENet-3",), depths=(20, 56),
...                                   n_units=(8, 16)))
>>> len(table.pareto_front("total_w_pl_s", "bram"))  # latency/BRAM trade-off
1

The numerical axis — how far each fixed-point format drifts from the float
mathematics — runs through :func:`accuracy_sweep`, which measures batched
multi-image forward passes of the bit-accurate PL datapath per Q-format and
reports the accuracy/latency/BRAM frontier:

>>> from repro.api import accuracy_sweep
>>> frontier = accuracy_sweep("layer3_2", images=4).pareto_front()

Multi-request serving scenarios (arrival processes, replicated PL
accelerators, dispatch policies) run through the discrete-event simulator:

>>> from repro.api import SimScenario, simulate
>>> report = simulate(SimScenario(model="rODENet-3", depth=20, arrival="poisson",
...                               arrival_rate_hz=2.0, n_requests=20, replicas=1))
>>> report.requests["completed"]
20

Fleet-scale serving — heterogeneous multi-board clusters behind a
load-balancer tier with SLO admission, per-class routing and reactive
autoscaling — runs through :func:`simulate_fleet` (optionally sharded over
a process pool; the shard count never changes the numbers):

>>> from repro.api import FleetScenario, BoardGroup, simulate_fleet
>>> fleet = simulate_fleet(FleetScenario(
...     boards=(BoardGroup("PYNQ-Z2", 8), BoardGroup("ZCU104", 4)),
...     arrival_rate_hz=100.0, n_requests=1000, cells=4), shards=4)

Constrained design-space *search* — "cheapest candidate meeting these
bounds" without evaluating the whole grid — runs through :func:`optimize`
over a declarative :class:`SearchSpace` (analytic screening plus
successive-halving simulation refinement, full provenance trace):

>>> from repro.api import SearchSpace, optimize
>>> report = optimize(
...     SearchSpace(axes={"board": ("PYNQ-Z2", "ZCU104"), "n_units": (16, 32)}),
...     objective="board_price_usd", constraints=("meets_timing==1",))
>>> report.best["values"]["board"]
'PYNQ-Z2'

Everything the CLI, the examples and the benchmarks print is derived from
these objects; see the package README for the quickstart.
"""

from .accuracy import AccuracyPoint, AccuracySweepResult, accuracy_sweep
from .rtl import export_rtl
from .batch import BatchResult, pareto_indices, sweep_batch
from .evaluator import TRAINING_PROJECTION_KEYS, Evaluator
from .result import Result
from .scenario import (
    BOARDS,
    DEFAULT_FRACTION_BITS,
    SCENARIO_MODELS,
    Scenario,
    fraction_bits_for,
    scenario_grid,
)
from .sweep import SweepError, results_to_csv, results_to_json, results_to_records, sweep

# The system simulator and the fault-injection workbench live in repro.sim /
# repro.faults but are part of the public API surface.  These imports must
# stay below the submodule imports above: both packages pull
# Scenario/Evaluator from this package's submodules.
from ..sim import SimReport, SimScenario, simulate
from ..faults import FmeaStudy, default_fault_domain, make_fault_mode, run_fmea
from ..fleet import BoardGroup, FleetReport, FleetScenario, TrafficClass, simulate_fleet
from ..opt import Constraint, Objective, OptReport, SearchSpace, optimize

__all__ = [
    "SearchSpace",
    "optimize",
    "OptReport",
    "Constraint",
    "Objective",
    "SimScenario",
    "simulate",
    "SimReport",
    "FleetScenario",
    "FleetReport",
    "BoardGroup",
    "TrafficClass",
    "simulate_fleet",
    "FmeaStudy",
    "run_fmea",
    "default_fault_domain",
    "make_fault_mode",
    "Scenario",
    "scenario_grid",
    "fraction_bits_for",
    "SCENARIO_MODELS",
    "BOARDS",
    "DEFAULT_FRACTION_BITS",
    "Evaluator",
    "TRAINING_PROJECTION_KEYS",
    "Result",
    "sweep",
    "SweepError",
    "sweep_batch",
    "BatchResult",
    "pareto_indices",
    "accuracy_sweep",
    "export_rtl",
    "AccuracySweepResult",
    "AccuracyPoint",
    "results_to_csv",
    "results_to_json",
    "results_to_records",
]
