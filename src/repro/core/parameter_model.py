"""Analytical parameter-size model (Table 2, Figure 5, Section 4.2).

The model combines the per-layer parameter counts of
:mod:`repro.core.network_spec` with the per-variant layer plans of
:mod:`repro.core.variants`:

* a layer realised as ``stacked`` contributes ``stacked_blocks`` copies of the
  plain block's parameters;
* a layer realised as ``single`` contributes one plain block;
* a layer realised as an ``odeblock`` contributes one block *with* the
  time-concatenation channel (``in_ch + 1`` inputs on both convs);
* a ``removed`` layer contributes nothing;
* conv1, layer2_1, layer3_1 and fc always contribute once.

With these rules the model reproduces every kB figure of Table 2 and every
reduction percentage quoted in Section 4.2 (36.24 %, 43.29 %, 79.54 %,
81.80 %, 26.43 %, 60.16 %) exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .network_spec import LAYER_ORDER, NETWORK_LAYERS, layer_geometry
from .variants import BlockRealization, SUPPORTED_DEPTHS, VARIANT_NAMES, VariantSpec, variant_spec

__all__ = [
    "LayerParameterEntry",
    "table2_structure",
    "variant_parameter_count",
    "variant_parameter_bytes",
    "parameter_size_series",
    "parameter_reduction_percent",
    "figure5_series",
]

BYTES_PER_PARAM = 4  # the paper assumes 32-bit parameters


@dataclass(frozen=True)
class LayerParameterEntry:
    """One row of Table 2."""

    layer: str
    output_size: str
    detail: str
    parameter_kilobytes: float
    executions_per_block: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "layer": self.layer,
            "output_size": self.output_size,
            "detail": self.detail,
            "parameter_kB": self.parameter_kilobytes,
            "executions_per_block": self.executions_per_block,
        }


def table2_structure() -> List[LayerParameterEntry]:
    """The rows of Table 2 (ODENet layer inventory with parameter sizes)."""

    descriptions = {
        "conv1": ("32x32, 16ch", "3x3, stride 1", "1"),
        "layer1": ("32x32, 16ch", "[3x3, 3x3], stride 1", "(N-2)/6"),
        "layer2_1": ("16x16, 32ch", "[3x3, 3x3], stride 2", "1"),
        "layer2_2": ("16x16, 32ch", "[3x3, 3x3], stride 1", "(N-8)/6"),
        "layer3_1": ("8x8, 64ch", "[3x3, 3x3], stride 2", "1"),
        "layer3_2": ("8x8, 64ch", "[3x3, 3x3], stride 1", "(N-8)/6"),
        "fc": ("1x100", "Average pooling, 100d fc, softmax", "1"),
    }
    entries: List[LayerParameterEntry] = []
    for name in LAYER_ORDER:
        geometry = layer_geometry(name)
        # Table 2 describes ODENet, whose repeated blocks are ODEBlocks.
        as_ode = name in ("layer1", "layer2_2", "layer3_2")
        out_size, detail, execs = descriptions[name]
        entries.append(
            LayerParameterEntry(
                layer=name,
                output_size=out_size,
                detail=detail,
                parameter_kilobytes=geometry.parameter_kilobytes(as_odeblock=as_ode),
                executions_per_block=execs,
            )
        )
    return entries


def _layer_parameter_count(spec: VariantSpec, layer: str) -> int:
    plan = spec.plan(layer)
    geometry = layer_geometry(layer)
    if plan.realization == BlockRealization.REMOVED:
        return 0
    if plan.realization == BlockRealization.ODEBLOCK:
        return geometry.parameter_count(as_odeblock=True)
    if plan.realization in (BlockRealization.STACKED,):
        return plan.stacked_blocks * geometry.parameter_count(as_odeblock=False)
    # SINGLE and FIXED: one plain instance.
    return geometry.parameter_count(as_odeblock=False)


def variant_parameter_count(spec_or_name, depth: int | None = None) -> int:
    """Total trainable parameters of a variant.

    Accepts either a :class:`VariantSpec` or a ``(name, depth)`` pair.
    """

    spec = spec_or_name if isinstance(spec_or_name, VariantSpec) else variant_spec(spec_or_name, depth)
    return sum(_layer_parameter_count(spec, layer) for layer in LAYER_ORDER)


def variant_parameter_bytes(spec_or_name, depth: int | None = None, bytes_per_param: int = BYTES_PER_PARAM) -> int:
    """Total parameter size in bytes (32-bit parameters by default)."""

    return variant_parameter_count(spec_or_name, depth) * bytes_per_param


def parameter_size_series() -> Dict[str, Dict[int, float]]:
    """Parameter size in kilobytes per variant and depth (the Figure 5 data)."""

    series: Dict[str, Dict[int, float]] = {}
    for name in VARIANT_NAMES:
        series[name] = {
            depth: variant_parameter_bytes(name, depth) / 1000.0 for depth in SUPPORTED_DEPTHS
        }
    return series


def parameter_reduction_percent(variant: str, depth: int) -> float:
    """Reduction of a variant's parameter size relative to ResNet, in percent."""

    base = variant_parameter_bytes("ResNet", depth)
    target = variant_parameter_bytes(variant, depth)
    return 100.0 * (1.0 - target / base)


#: :func:`parameter_size_series` under the paper's figure name.
figure5_series = parameter_size_series
