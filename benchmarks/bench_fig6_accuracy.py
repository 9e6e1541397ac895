"""Benchmark / regeneration of Figure 6: accuracy of the seven architectures.

Two parts:

* the paper-scale series from the calibrated accuracy model (the CIFAR-100
  numbers quoted in Section 4.3 plus the qualitative trends), and
* a *measured* small-scale functional proxy: the actual repro.nn training
  loop run for a few epochs on the synthetic dataset with reduced-width
  ResNet-20 and rODENet-3-20 models, checking the qualitative ordering
  (ResNet >= rODENet-3 >= chance) that Figure 6 shows at N=20.

The functional proxy is intentionally tiny so the benchmark stays in CPU
budget; ``examples/train_variants.py`` runs the larger version.
"""

from __future__ import annotations

import pytest

from repro.analysis import figure6_series, format_series
from repro.core import SUPPORTED_DEPTHS, VARIANT_NAMES, build_network
from repro.data import make_synthetic_cifar, train_test_split
from repro.train import PaperTrainingSchedule, Trainer, evaluate

from conftest import print_report


def test_figure6_paper_scale_series(benchmark):
    series = benchmark(figure6_series)
    print_report("Figure 6: CIFAR-100 accuracy [%] (calibrated paper-scale model)", format_series(series))

    # Qualitative shape asserted by the paper's Section 4.3.
    for depth in SUPPORTED_DEPTHS:
        assert series["ResNet"][depth] == max(series[v][depth] for v in VARIANT_NAMES)
    for depth in (20, 32):
        runner_up = sorted((series[v][depth] for v in VARIANT_NAMES), reverse=True)[1]
        assert series["rODENet-3"][depth] == runner_up
    assert series["Hybrid-3"][56] > series["ODENet"][56]
    assert series["rODENet-1"][56] < series["rODENet-3"][56]


def _train_small(variant: str, train_set, test_set, epochs: int = 3) -> float:
    model = build_network(variant, 20, num_classes=train_set.num_classes, base_width=4)
    schedule = PaperTrainingSchedule(epochs=epochs, base_lr=0.05, milestones=(epochs,), batch_size=32)
    Trainer(model, train_set, schedule=schedule, seed=0).fit()
    _, accuracy = evaluate(model, test_set)
    return accuracy


def test_figure6_functional_proxy(benchmark):
    """Small-scale measured proxy: the same training code path, tiny data."""

    dataset = make_synthetic_cifar(num_samples=160, num_classes=4, image_size=16, difficulty=0.4, seed=3)
    train_set, test_set = train_test_split(dataset, test_fraction=0.25, seed=0)

    accuracies = benchmark.pedantic(
        lambda: {
            "ResNet": _train_small("ResNet", train_set, test_set),
            "rODENet-3": _train_small("rODENet-3", train_set, test_set),
        },
        iterations=1,
        rounds=1,
    )

    rows = "\n".join(f"{name:12s} measured proxy accuracy: {acc:.3f}" for name, acc in accuracies.items())
    print_report("Figure 6 (functional proxy, synthetic 4-class data, N=20 reduced width)", rows)

    chance = 0.25
    assert accuracies["ResNet"] > chance + 0.1
    assert accuracies["rODENet-3"] > chance + 0.1
