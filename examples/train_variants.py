#!/usr/bin/env python3
"""Functional training of the paper's architectures (small-scale Figure 6 proxy).

The paper trains ResNet-N, ODENet-N, the rODENet variants and Hybrid-3-N on
CIFAR-100 for 200 epochs (Section 4.3).  That is far outside a CPU budget, so
this example runs the *same code path* at reduced scale: reduced-width models
(base_width 8 instead of 16), the synthetic CIFAR substitute, and a shortened
version of the paper's SGD schedule.  It reports the measured proxy accuracy
of each variant next to the paper's CIFAR-100 accuracy so the qualitative
comparison of Figure 6 can be eyeballed.

Run:  python examples/train_variants.py [--epochs 6] [--variants ResNet rODENet-3]
"""

from __future__ import annotations

import argparse
import time

from repro.analysis import accuracy_model, format_records
from repro.core import VARIANT_NAMES, build_network
from repro.data import make_synthetic_cifar, train_test_split
from repro.train import PaperTrainingSchedule, Trainer, evaluate


def train_one(variant: str, depth: int, train_set, test_set, epochs: int, width: int) -> dict:
    model = build_network(
        variant, depth, num_classes=train_set.num_classes, base_width=width
    )
    schedule = PaperTrainingSchedule(
        epochs=epochs,
        base_lr=0.05,
        milestones=(max(1, epochs // 2), max(2, 3 * epochs // 4)),
        batch_size=32,
    )
    start = time.time()
    trainer = Trainer(model, train_set, test_set, schedule=schedule, seed=1)
    history = trainer.fit()
    _, test_acc = evaluate(model, test_set)
    paper = accuracy_model(variant, depth)
    return {
        "variant": f"{variant}-{depth}",
        "params": model.num_parameters(),
        "final_train_acc": round(history.final.train_accuracy, 3),
        "proxy_test_acc": round(test_acc, 3),
        "paper_cifar100_acc_%": paper.accuracy_percent,
        "paper_stable": paper.stable,
        "train_seconds": round(time.time() - start, 1),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=4, help="training epochs per variant")
    parser.add_argument("--depth", type=int, default=20, help="network depth N")
    parser.add_argument("--width", type=int, default=8, help="base channel width (paper: 16)")
    parser.add_argument("--samples", type=int, default=400, help="synthetic dataset size")
    parser.add_argument("--classes", type=int, default=10, help="number of classes")
    parser.add_argument(
        "--variants",
        nargs="*",
        default=["ResNet", "ODENet", "rODENet-3", "Hybrid-3"],
        choices=list(VARIANT_NAMES),
        help="architectures to train",
    )
    args = parser.parse_args()

    print(f"Generating synthetic dataset: {args.samples} samples, {args.classes} classes, 16x16 images")
    dataset = make_synthetic_cifar(
        num_samples=args.samples,
        num_classes=args.classes,
        image_size=16,
        difficulty=0.4,
        seed=0,
    )
    train_set, test_set = train_test_split(dataset, test_fraction=0.2, seed=1)

    rows = []
    for variant in args.variants:
        print(f"\nTraining {variant}-{args.depth} (width {args.width}) for {args.epochs} epochs ...")
        rows.append(train_one(variant, args.depth, train_set, test_set, args.epochs, args.width))
        print(f"  -> proxy test accuracy {rows[-1]['proxy_test_acc']}")

    print("\n=== Small-scale functional proxy vs paper-scale CIFAR-100 accuracy (Figure 6) ===")
    print(format_records(rows))
    print(
        "\nNote: proxy accuracies are on the synthetic dataset and are not comparable in\n"
        "absolute terms to CIFAR-100; the point is that every variant trains through the\n"
        "identical code path (ODE solvers, parameter sharing, SGD schedule)."
    )


if __name__ == "__main__":
    main()
