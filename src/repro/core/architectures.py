"""Executable network builders for every architecture of Table 4.

:func:`build_network` turns a :class:`~repro.core.variants.VariantSpec` into a
trainable :class:`~repro.nn.Module` assembled from the building blocks of
:mod:`repro.core.odeblock`.  The resulting networks follow the structure of
Table 2 exactly (conv1 → layer1 → layer2_1 → layer2_2 → layer3_1 → layer3_2 →
global average pooling → 100-way fully connected → softmax at the loss).

A ``scale`` argument shrinks the channel widths (and optionally the depth
plans) so the same code path can be exercised on small synthetic data in the
test-suite and the functional training example, where full CIFAR-100 models
would be too slow to train on a CPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .. import nn
from ..nn.tensor import Tensor
from .network_spec import INPUT_CHANNELS, NUM_CLASSES
from .odeblock import ODEBlock, PlainBlock
from .variants import BlockRealization, VariantSpec, variant_spec

__all__ = ["OdeNetConfig", "OdeNetModel", "build_network", "count_block_executions"]


@dataclass(frozen=True)
class OdeNetConfig:
    """Configuration of a concrete, executable network instance."""

    variant: str
    depth: int
    num_classes: int = NUM_CLASSES
    base_width: int = 16

    @property
    def stage_channels(self) -> Tuple[int, int, int]:
        w = self.base_width
        return (w, 2 * w, 4 * w)


class OdeNetModel(nn.Module):
    """A concrete network built from a variant specification."""

    def __init__(self, spec: VariantSpec, config: OdeNetConfig) -> None:
        super().__init__()
        self.spec = spec
        self.config = config
        rng = np.random.default_rng(0)  # the initialisation seed
        c1, c2, c3 = config.stage_channels

        # Pre-processing (conv1): conv + BN + ReLU.
        self.conv1 = nn.Conv2d(INPUT_CHANNELS, c1, rng=rng)
        self.bn1 = nn.BatchNorm2d(c1)

        # Repeated stages.
        self.layer1 = self._make_stage(spec, "layer1", c1, rng)
        self.layer2_1 = PlainBlock(c1, c2, stride=2, rng=rng)
        self.layer2_2 = self._make_stage(spec, "layer2_2", c2, rng)
        self.layer3_1 = PlainBlock(c2, c3, stride=2, rng=rng)
        self.layer3_2 = self._make_stage(spec, "layer3_2", c3, rng)

        # Post-processing (fc): global average pooling + fully connected.
        self.pool = nn.GlobalAvgPool2d()
        self.fc = nn.Linear(c3, config.num_classes, rng=rng)

    def _make_stage(
        self,
        spec: VariantSpec,
        layer: str,
        channels: int,
        rng: np.random.Generator,
    ) -> nn.Module:
        plan = spec.plan(layer)
        if plan.realization == BlockRealization.REMOVED:
            return nn.Identity()
        if plan.realization == BlockRealization.ODEBLOCK:
            return ODEBlock(channels, num_steps=plan.executions_per_block, rng=rng)
        if plan.realization == BlockRealization.SINGLE:
            return PlainBlock(channels, channels, stride=1, rng=rng)
        # STACKED: a sequence of distinct plain blocks.
        blocks = [PlainBlock(channels, channels, stride=1, rng=rng) for _ in range(plan.stacked_blocks)]
        return nn.Sequential(*blocks)

    # -- forward -------------------------------------------------------------------

    def features(self, x: Tensor) -> Tensor:
        """Feature extractor up to (and including) layer3_2."""

        h = self.bn1(self.conv1(x)).relu()
        h = self.layer1(h)
        h = self.layer2_1(h)
        h = self.layer2_2(h)
        h = self.layer3_1(h)
        h = self.layer3_2(h)
        return h

    def forward(self, x: Tensor) -> Tensor:
        h = self.features(x)
        pooled = self.pool(h)
        return self.fc(pooled)

    # -- introspection ----------------------------------------------------------------

    def stage_module(self, layer: str) -> nn.Module:
        """Return the module implementing a named layer group."""

        mapping = {
            "layer1": self.layer1,
            "layer2_1": self.layer2_1,
            "layer2_2": self.layer2_2,
            "layer3_1": self.layer3_1,
            "layer3_2": self.layer3_2,
        }
        if layer not in mapping:
            raise KeyError(f"unknown stage '{layer}'")
        return mapping[layer]


def build_network(
    variant: str,
    depth: int,
    num_classes: int = NUM_CLASSES,
    base_width: int = 16,
) -> OdeNetModel:
    """Build an executable network for a named variant and depth.

    Parameters mirror the paper's configuration by default (CIFAR-100,
    16/32/64 channels, Euler prediction, RGB input, initialisation seed 0);
    ``base_width`` and ``num_classes`` can be reduced for fast functional
    tests.
    """

    spec = variant_spec(variant, depth)
    config = OdeNetConfig(
        variant=spec.name, depth=depth, num_classes=num_classes, base_width=base_width
    )
    return OdeNetModel(spec, config)


def count_block_executions(model: OdeNetModel) -> Dict[str, int]:
    """Building-block executions per layer group for one forward pass.

    For ODEBlocks this counts solver steps times solver stages; for plain /
    stacked blocks it counts the block instances.  Used by tests to confirm
    the executable models match the Table 4 execution counts.
    """

    counts: Dict[str, int] = {}
    for plan in model.spec:
        layer = plan.layer
        if layer in ("conv1", "fc"):
            continue
        module = model.stage_module(layer)
        if isinstance(module, ODEBlock):
            counts[layer] = module.num_steps * module.solver.stages_per_step
        elif isinstance(module, nn.Identity):
            counts[layer] = 0
        elif isinstance(module, nn.Sequential):
            counts[layer] = len(module)
        else:
            counts[layer] = 1
    return counts
