"""``repro.faults`` — fault injection, degraded-mode serving and FMEA tables.

The resilience workbench over :mod:`repro.sim`: typed fault modes over the
simulator's resources (:mod:`~repro.faults.modes`), fmdtools-style sampled
injection times (:mod:`~repro.faults.sample`), and rate × exposure-weighted
FMEA tabulation against the nominal run (:mod:`~repro.faults.tabulate`).

Typical use::

    from repro.faults import default_fault_domain, run_fmea
    from repro.sim import SimScenario

    scenario = SimScenario(model="rODENet-3", depth=20, arrival="poisson",
                           arrival_rate_hz=4.0, n_requests=50, replicas=2)
    study = run_fmea(scenario, default_fault_domain())
    print(study.render())

Single fault runs go straight through the simulator::

    from repro.faults import ReplicaDeath
    from repro.sim import simulate

    report = simulate(scenario, faults=[(ReplicaDeath(), 2.5)])
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".modes": (
            "FAULT_MODE_KINDS", "AxiDegradation", "DmaCorruption", "FaultMode", "PsCoreLoss",
            "ReplicaDeath", "default_fault_domain", "flip_bit", "make_fault_mode",
            "parse_fault_specs",
        ),
        ".sample": ("SAMPLING_METHODS", "injection_times"),
        ".tabulate": ("FmeaStudy", "run_fmea"),
        "..sim.scenario": ("DEFAULT_SLO_FACTOR",),
    },
)
