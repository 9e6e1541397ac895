"""Figure 6 with measured results: paper-scale accuracy merged with the
small-scale proxy accuracy of the functional training path.

The figure series themselves have one definition each:
:func:`repro.core.parameter_model.figure5_series` (Figure 5, parameter size
versus depth) and :func:`repro.analysis.accuracy_model.figure6_series`
(Figure 6, CIFAR-100 accuracy versus depth); :mod:`repro.analysis` exports
both.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from .accuracy_model import figure6_series

__all__ = ["merge_measured_accuracy"]


def merge_measured_accuracy(
    measured: Mapping[str, Mapping[int, float]],
    paper_only: bool = False,
) -> Dict[str, Dict[int, Dict[str, Optional[float]]]]:
    """Combine modelled paper-scale accuracy with measured proxy accuracy.

    ``measured`` maps variant -> depth -> accuracy (fraction or percent) from
    a small-scale functional run.  The result maps variant -> depth ->
    ``{"paper": ..., "measured": ...}`` so EXPERIMENTS.md-style comparisons
    can be generated programmatically.
    """

    paper = figure6_series(paper_only=paper_only)
    merged: Dict[str, Dict[int, Dict[str, Optional[float]]]] = {}
    variants = set(paper) | set(measured)
    for variant in variants:
        merged[variant] = {}
        depths = set(paper.get(variant, {})) | set(measured.get(variant, {}))
        for depth in sorted(depths):
            merged[variant][depth] = {
                "paper": paper.get(variant, {}).get(depth),
                "measured": measured.get(variant, {}).get(depth),
            }
    return merged
