"""``repro.sim`` — discrete-event simulation of multi-request PS+PL serving.

The analytic models (:mod:`repro.api`) price *one* inference in closed form;
this package simulates *traffic*: request arrivals, queueing at the PS core
and the replicated PL accelerators, burst-level AXI/DMA contention, dispatch
policies and the latency/utilisation/energy consequences.  Per-transaction
service times come from the same calibrated models the evaluator uses, so a
contention-free simulation reproduces the analytic latency exactly and every
multi-request scenario is new, internally consistent ground.

Entry points:

>>> from repro.sim import SimScenario, simulate
>>> report = simulate(SimScenario(model="rODENet-3", depth=20, arrival="poisson",
...                               arrival_rate_hz=2.0, n_requests=50, replicas=2))
>>> report.requests["completed"]
50

or via the CLI: ``repro-odenet sim rODENet-3 --arrivals poisson --rate 2
--requests 200 --replicas auto``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".engine": ("Process", "Simulator"),
        ".metrics": (
            "LatencyStats", "QuantileSketch", "SimReport", "energy_summary", "latency_stats",
            "slo_summary", "windowed_mean",
        ),
        ".policies": ("POLICY_NAMES", "Dispatcher", "size_replicas"),
        ".resources": ("Accelerator", "AxiBus", "LevelMonitor", "Resource"),
        ".runner": ("SimSystem", "as_sim_scenario", "simulate"),
        ".scenario": ("DEFAULT_SLO_FACTOR", "SimScenario"),
        ".workload": (
            "ARRIVAL_KINDS", "PlExecution", "PsSegment", "Request", "ServicePlan", "arrival_times",
            "build_service_plan", "sample_mix",
        ),
    },
)
