"""Fault-scenario sampling: when, within a run, does each mode strike?

The fmdtools approach to resilience quantification: a fault's *effect*
depends on when it hits (a replica dying into an empty queue is free; dying
under peak backlog is not), so each mode's injection time is sampled across
the run and the observed deltas are combined with quadrature weights.  One
:class:`~repro.sim.scenario.SimScenario` thus expands into a weighted set of
fault scenarios — one ``(mode, t_inject)`` pair per sampled time — each run
through the ordinary :func:`~repro.sim.runner.simulate` path.

Two sampling rules are provided:

* ``even`` — midpoint rule: times at ``(i + 1/2) * h / n`` with uniform
  weights ``1/n`` (robust, the default);
* ``quadrature`` — Gauss–Legendre nodes mapped to ``[0, h]`` with the
  corresponding weights (exact for polynomial time-dependence of the loss,
  fewer samples for smooth responses).

Per mode the weights sum to one, so a weighted sum of per-sample metrics
estimates the *time-averaged* effect of one occurrence of that mode.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .._checks import check_count

__all__ = ["SAMPLING_METHODS", "injection_times"]

#: Supported time-sampling rules.
SAMPLING_METHODS: Tuple[str, ...] = ("even", "quadrature")


def injection_times(
    horizon_s: float, n_samples: int = 3, method: str = "even"
) -> Tuple[List[float], List[float]]:
    """Sampled injection times and weights over ``[0, horizon_s]``.

    Weights sum to one for either method; all times lie strictly inside the
    horizon (neither rule places a node on an endpoint).
    """

    if horizon_s <= 0:
        raise ValueError(f"horizon_s must be positive (got {horizon_s})")
    n_samples = check_count("n_samples", n_samples, 1)
    if method == "even":
        times = [(i + 0.5) * horizon_s / n_samples for i in range(n_samples)]
        weights = [1.0 / n_samples] * n_samples
    elif method == "quadrature":
        nodes, w = np.polynomial.legendre.leggauss(n_samples)
        times = [float(t) for t in (nodes + 1.0) * 0.5 * horizon_s]
        weights = [float(v) for v in w * 0.5]
    else:
        raise ValueError(
            f"unknown sampling method '{method}'; expected one of {SAMPLING_METHODS}"
        )
    return times, weights
