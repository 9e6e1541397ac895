"""Architecture variants of Table 4.

Seven architectures are evaluated in the paper, each parameterised by the
depth N (20, 32, 44 or 56):

* **ResNet-N** — the baseline: every repeated layer group is a stack of
  distinct building blocks.
* **ODENet-N** — layer1, layer2_2 and layer3_2 are each replaced by a single
  ODEBlock executed repeatedly (Euler steps).
* **rODENet-1-N** — layer2_2 and layer3_2 are removed; layer1 becomes an
  ODEBlock whose execution count grows so the total number of building-block
  executions matches ResNet-N.
* **rODENet-2-N** — layer1 runs once, layer3_2 is removed, layer2_2 becomes
  the heavily-executed ODEBlock.
* **rODENet-1+2-N** — layer3_2 is removed; layer1 and layer2_2 are ODEBlocks
  sharing the execution budget.
* **rODENet-3-N** — layer1 runs once, layer2_2 is removed, layer3_2 becomes
  the heavily-executed ODEBlock.
* **Hybrid-3-N** — like ResNet-N but with layer3_2 (only) replaced by an
  ODEBlock.

A :class:`VariantSpec` lists, per layer group, the number of *stacked block
instances* and the number of *executions per block* — exactly the two columns
of Table 4 — plus how the block is realised (plain stacked blocks, a single
plain block, an ODEBlock, or removed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .network_spec import LAYER_ORDER, NETWORK_LAYERS

__all__ = [
    "BlockRealization",
    "LayerPlan",
    "VariantSpec",
    "VARIANT_NAMES",
    "SUPPORTED_DEPTHS",
    "variant_spec",
    "table4_variant",
    "table4_rows",
]


class BlockRealization:
    """How a layer group is realised in a particular variant."""

    STACKED = "stacked"  # k distinct plain blocks, each executed once
    SINGLE = "single"  # one plain block executed once
    ODEBLOCK = "odeblock"  # one ODEBlock executed M times (Euler steps)
    REMOVED = "removed"  # layer group eliminated
    FIXED = "fixed"  # conv1 / layer2_1 / layer3_1 / fc (always present, once)

    ALL = (STACKED, SINGLE, ODEBLOCK, REMOVED, FIXED)


@dataclass(frozen=True)
class LayerPlan:
    """Per-layer entry of Table 4: instances, executions and realisation."""

    layer: str
    stacked_blocks: int
    executions_per_block: int
    realization: str

    @property
    def total_executions(self) -> int:
        """Total number of block executions contributed by this layer group."""

        return self.stacked_blocks * self.executions_per_block

    def as_table_cell(self) -> str:
        """Format as Table 4 does ("#stacked / #executions")."""

        return f"{self.stacked_blocks} / {self.executions_per_block}"


#: Names of the seven evaluated architectures.
VARIANT_NAMES: Tuple[str, ...] = (
    "ResNet",
    "ODENet",
    "rODENet-1",
    "rODENet-2",
    "rODENet-1+2",
    "rODENet-3",
    "Hybrid-3",
)

#: Depths evaluated in the paper.
SUPPORTED_DEPTHS: Tuple[int, ...] = (20, 32, 44, 56)


def table4_variant(model: str) -> str:
    """The Table-4 variant a Table-5 row name runs: the row "ODENet-3"
    (ODENet-N with only layer3_2 offloaded) is the ODENet variant; every
    other name is already a variant name."""

    return "ODENet" if model == "ODENet-3" else model


@dataclass(frozen=True)
class VariantSpec:
    """One architecture (variant name + depth N) as a set of layer plans."""

    name: str
    depth: int
    layers: Tuple[LayerPlan, ...]

    @property
    def full_name(self) -> str:
        return f"{self.name}-{self.depth}"

    def plan(self, layer: str) -> LayerPlan:
        for entry in self.layers:
            if entry.layer == layer:
                return entry
        raise KeyError(f"{self.full_name} has no layer named '{layer}'")

    def __iter__(self):
        return iter(self.layers)

    @property
    def total_block_executions(self) -> int:
        """Total building-block executions (excluding conv1 and fc).

        The rODENet variants are constructed so this matches ResNet-N (the
        paper's "the total execution count of building blocks is same as
        ResNet-N").
        """

        return sum(
            p.total_executions
            for p in self.layers
            if NETWORK_LAYERS[p.layer].kind in ("block", "downsample_block")
        )

    def heavily_used_layers(self) -> List[str]:
        """ODEBlock layers executed more than once (the natural offload targets)."""

        return [
            p.layer
            for p in self.layers
            if p.realization == BlockRealization.ODEBLOCK and p.executions_per_block > 1
        ]


def _check_divisibility(depth: int) -> None:
    if depth not in SUPPORTED_DEPTHS and (depth - 2) % 6 != 0:
        raise ValueError(
            f"unsupported depth N={depth}: the CIFAR ResNet family requires (N-2) % 6 == 0"
        )
    if depth < 20:
        raise ValueError("depth must be at least 20 (smaller depths make (N-8)/6 < 2)")


def variant_spec(name: str, depth: int) -> VariantSpec:
    """Build the Table-4 specification of one architecture.

    Parameters
    ----------
    name:
        One of :data:`VARIANT_NAMES` (case-insensitive; "rODENet-1+2" and
        "rodenet-1+2" are both accepted).
    depth:
        The ResNet-equivalent depth N (20, 32, 44 or 56 in the paper).
    """

    _check_divisibility(depth)
    n = depth
    n1 = (n - 2) // 6  # ResNet blocks in layer1
    n2 = (n - 8) // 6  # ResNet blocks in layer2_2 and layer3_2

    canonical = {v.lower(): v for v in VARIANT_NAMES}
    key = canonical.get(name.lower())
    if key is None:
        raise ValueError(f"unknown variant '{name}'; expected one of {VARIANT_NAMES}")

    S = BlockRealization.STACKED
    G = BlockRealization.SINGLE
    O = BlockRealization.ODEBLOCK
    R = BlockRealization.REMOVED
    F = BlockRealization.FIXED

    # (stacked, executions, realization) per repeated layer group.
    if key == "ResNet":
        layer1, layer2_2, layer3_2 = (n1, 1, S), (n2, 1, S), (n2, 1, S)
    elif key == "ODENet":
        layer1, layer2_2, layer3_2 = (1, n1, O), (1, n2, O), (1, n2, O)
    elif key == "rODENet-1":
        layer1, layer2_2, layer3_2 = (1, (n - 6) // 2, O), (0, 0, R), (0, 0, R)
    elif key == "rODENet-2":
        layer1, layer2_2, layer3_2 = (1, 1, G), (1, (n - 8) // 2, O), (0, 0, R)
    elif key == "rODENet-1+2":
        layer1, layer2_2, layer3_2 = (1, (n - 4) // 4, O), (1, (n - 8) // 4, O), (0, 0, R)
    elif key == "rODENet-3":
        layer1, layer2_2, layer3_2 = (1, 1, G), (0, 0, R), (1, (n - 8) // 2, O)
    elif key == "Hybrid-3":
        layer1, layer2_2, layer3_2 = (n1, 1, S), (n2, 1, S), (1, n2, O)
    else:  # pragma: no cover - unreachable
        raise AssertionError(key)

    plans = (
        LayerPlan("conv1", 1, 1, F),
        LayerPlan("layer1", *layer1),
        LayerPlan("layer2_1", 1, 1, F),
        LayerPlan("layer2_2", *layer2_2),
        LayerPlan("layer3_1", 1, 1, F),
        LayerPlan("layer3_2", *layer3_2),
        LayerPlan("fc", 1, 1, F),
    )
    spec = VariantSpec(name=key, depth=depth, layers=plans)

    # The rODENet construction requires the execution budget to divide evenly
    # (e.g. rODENet-1+2 needs N ≡ 0 (mod 4)); reject depths where integer
    # division would silently drop executions.
    baseline_executions = (depth - 6) // 2 + 2  # ResNet-N building-block executions
    if spec.total_block_executions != baseline_executions:
        raise ValueError(
            f"depth N={depth} is incompatible with variant {key}: the execution "
            f"budget ({baseline_executions}) cannot be divided evenly across its ODEBlocks"
        )
    return spec


def table4_rows(depth: int) -> Dict[str, Dict[str, str]]:
    """Table 4 for a given depth: layer -> {variant -> "stacked / executions"}."""

    rows: Dict[str, Dict[str, str]] = {layer: {} for layer in LAYER_ORDER}
    for name in VARIANT_NAMES:
        spec = variant_spec(name, depth)
        for plan in spec:
            rows[plan.layer][name] = plan.as_table_cell()
    return rows
