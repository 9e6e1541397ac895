"""repro.opt — constrained design-space optimization: search, not sweep.

The sweep machinery answers "what does every point look like?"; this package
answers "which point should I build?" without paying for the whole grid.  A
declarative :class:`SearchSpace` enumerates candidates, stage 1 screens all
of them on the vectorized batch engine (structural and latency-lower-bound
violations are pruned for free), and stage 2 refines the survivors with
short, seeded simulation runs — successive halving over a rung schedule —
under an explicit budget in full-evaluation units.  The result is an
:class:`OptReport` carrying the constrained optimum *and* the full
provenance trace: every candidate, the stage it reached, and why it was
pruned.  Surfaced as :func:`repro.api.optimize` and the ``optimize`` CLI
subcommand.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".constraints": ("Constraint", "Objective", "parse_constraint", "parse_objective"),
        ".refine": ("FIDELITY_NAMES", "RUNG_FRACTIONS", "candidate_seeds", "optimize"),
        ".report": ("CandidateRecord", "OptReport"),
        ".screen": (
            "LATENCY_METRICS", "METRICS_FOR_FIDELITY", "STRUCTURAL_METRICS", "analytic_metrics",
            "prune_reason", "screen_space",
        ),
        ".space": ("AXIS_ORDER", "Candidate", "SearchSpace"),
    },
)
