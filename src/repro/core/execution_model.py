"""End-to-end execution-time model (Table 5 of the paper).

For every architecture the model combines

* the per-layer execution counts of Table 4 (:mod:`repro.core.variants`),
* the software cost of each layer-group execution on the PS part
  (:mod:`repro.hwsw.ps_model`),
* the PL cycle model of the offloaded ODEBlock (:mod:`repro.fpga.cycles`) and
* the PS↔PL AXI transfer assumption (:mod:`repro.fpga.axi`),

and produces the columns of Table 5: total time without the PL, the offload
target's share of that time, the target's time when executed on the PL, the
resulting total, and the overall speedup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .._checks import check_count
from ..fpga.axi import AxiTransferConfig, AxiTransferModel
from ..fpga.cycles import (
    CycleModelConfig,
    OdeBlockCycleModel,
    bn_cycles_kernel,
    block_seconds_kernel,
    conv_cycles_kernel,
    effective_units_kernel,
)
from ..platform import PYNQ_Z2, BoardSpec
from ..fpga.geometry import BlockGeometry
from ..hwsw.ps_model import PsModelConfig, SoftwareCostModel
from .network_spec import LAYER_ORDER, layer_geometry
from .variants import BlockRealization, VariantSpec, table4_variant, variant_spec

__all__ = [
    "LayerTimeEntry",
    "ExecutionTimeReport",
    "ExecutionTimeModel",
    "PAPER_OFFLOAD_TARGETS",
    "TABLE5_MODELS",
    "pl_layer_seconds_kernel",
]


def pl_layer_seconds_kernel(
    geometry: BlockGeometry,
    n_units,
    clock_hz,
    cycle_config: CycleModelConfig,
    transfer_seconds,
):
    """Array-capable kernel: PL time of one block execution (compute + DMA).

    ``n_units``, ``clock_hz`` and ``transfer_seconds`` may be scalars or NumPy
    arrays; the geometry and cycle-model constants are per-layer scalars.  The
    scalar :meth:`ExecutionTimeModel.pl_layer_seconds` and the batch engine
    (:mod:`repro.api.batch`) both evaluate exactly this expression, keeping
    the two paths bit-identical.
    """

    units = effective_units_kernel(n_units, geometry.out_channels)
    conv = conv_cycles_kernel(geometry.total_macs, units, cycle_config.cycles_per_mac)
    bn = bn_cycles_kernel(geometry.bn_elements, cycle_config.bn_cycles_per_element)
    if cycle_config.relu_cycles_per_element == 0.0:
        relu = 0.0
    else:
        relu = geometry.output_elements * cycle_config.relu_cycles_per_element / units
    compute = block_seconds_kernel(conv, bn, relu, cycle_config.invocation_overhead, clock_hz)
    return compute + transfer_seconds


#: Offload target(s) used for each Table-5 row ("Offload target" column).
PAPER_OFFLOAD_TARGETS: Dict[str, Tuple[str, ...]] = {
    "ResNet": (),
    "rODENet-1": ("layer1",),
    "rODENet-2": ("layer2_2",),
    "rODENet-1+2": ("layer1", "layer2_2"),
    "rODENet-3": ("layer3_2",),
    "ODENet-3": ("layer3_2",),
    "Hybrid-3": ("layer3_2",),
}

#: Row order of Table 5.  "ODENet-3" is ODENet-N with layer3_2 offloaded.
TABLE5_MODELS: Tuple[str, ...] = (
    "ResNet",
    "rODENet-1",
    "rODENet-2",
    "rODENet-1+2",
    "rODENet-3",
    "ODENet-3",
    "Hybrid-3",
)


@dataclass(frozen=True)
class LayerTimeEntry:
    """Timing of one layer group within one architecture."""

    layer: str
    executions: int
    software_seconds_per_execution: float
    pl_seconds_per_execution: Optional[float]
    offloaded: bool

    @property
    def software_seconds(self) -> float:
        return self.executions * self.software_seconds_per_execution

    @property
    def accelerated_seconds(self) -> float:
        if self.offloaded and self.pl_seconds_per_execution is not None:
            return self.executions * self.pl_seconds_per_execution
        return self.software_seconds


@dataclass(frozen=True)
class ExecutionTimeReport:
    """One row of Table 5."""

    model: str
    depth: int
    offload_targets: Tuple[str, ...]
    layers: Tuple[LayerTimeEntry, ...]
    overhead_seconds: float

    # -- totals ------------------------------------------------------------------

    @property
    def total_without_pl(self) -> float:
        """"Total w/o PL [s]": pure software execution time."""

        return sum(e.software_seconds for e in self.layers) + self.overhead_seconds

    @property
    def target_without_pl(self) -> Tuple[float, ...]:
        """"Target w/o PL [s]" per offload target."""

        return tuple(
            e.software_seconds for e in self.layers if e.layer in self.offload_targets
        )

    @property
    def target_ratio_percent(self) -> Tuple[float, ...]:
        """"Ratio of target [%]" per offload target."""

        total = self.total_without_pl
        return tuple(100.0 * t / total for t in self.target_without_pl)

    @property
    def target_with_pl(self) -> Tuple[float, ...]:
        """"Target w/ PL [s]" per offload target."""

        return tuple(
            e.accelerated_seconds for e in self.layers if e.layer in self.offload_targets
        )

    @property
    def total_with_pl(self) -> float:
        """"Total w/ PL [s]": software time with the targets offloaded."""

        return sum(e.accelerated_seconds for e in self.layers) + self.overhead_seconds

    @property
    def overall_speedup(self) -> float:
        """"Overall speedup": total w/o PL divided by total w/ PL."""

        if not self.offload_targets:
            return 1.0
        return self.total_without_pl / self.total_with_pl

    def layer_entry(self, layer: str) -> LayerTimeEntry:
        for e in self.layers:
            if e.layer == layer:
                return e
        raise KeyError(f"no layer '{layer}' in report for {self.model}-{self.depth}")

    def as_dict(self) -> Dict[str, object]:
        return {
            "model": self.model,
            "N": self.depth,
            "offload_target": "/".join(self.offload_targets) or "-",
            "total_wo_pl_s": self.total_without_pl,
            "target_wo_pl_s": list(self.target_without_pl),
            "ratio_of_target_pct": list(self.target_ratio_percent),
            "target_w_pl_s": list(self.target_with_pl),
            "total_w_pl_s": self.total_with_pl,
            "overall_speedup": self.overall_speedup,
        }


class ExecutionTimeModel:
    """Build Table-5 style execution-time reports."""

    def __init__(
        self,
        board: BoardSpec = PYNQ_Z2,
        n_units: int = 16,
        ps_config: Optional[PsModelConfig] = None,
        cycle_config: Optional[CycleModelConfig] = None,
        axi_config: Optional[AxiTransferConfig] = None,
        include_transfer: bool = True,
    ) -> None:
        self.board = board
        self.n_units = n_units
        self.include_transfer = include_transfer
        # Board-derived defaults: the PS software model runs at the board's
        # PS clock and the AXI transfers are counted against the board's PL
        # clock (one source of truth per clock).  Explicit configs still win.
        self.software_model = SoftwareCostModel(ps_config or PsModelConfig.for_board(board))
        self.cycle_model = OdeBlockCycleModel(cycle_config)
        self.transfer_model = AxiTransferModel(axi_config or AxiTransferConfig.for_board(board))

    # -- per-layer costs --------------------------------------------------------------

    def software_layer_seconds(self, layer: str) -> float:
        """Software time of one execution of a layer group on the PS part."""

        geom = layer_geometry(layer)
        return self.software_model.block_time(
            macs=geom.macs,
            out_elements=geom.out_elements,
            elementwise_passes=geom.elementwise_passes,
        )

    def pl_layer_seconds(self, layer: str, n_units: Optional[int] = None) -> float:
        """PL time of one execution of an offloadable layer group (compute + DMA).

        ``n_units`` overrides the model's default MAC-unit count for this
        query only (the model itself is not mutated, so concurrent callers
        can share one instance).
        """

        geom = layer_geometry(layer)
        fpga_geom = geom.fpga_geometry()
        units = self.cycle_model.effective_units(
            fpga_geom, self.n_units if n_units is None else n_units
        )
        transfer = (
            self.transfer_model.block_round_trip(fpga_geom).seconds
            if self.include_transfer
            else 0.0
        )
        return float(
            pl_layer_seconds_kernel(
                fpga_geom, units, self.board.pl_clock_hz, self.cycle_model.config, transfer
            )
        )

    # -- reports -----------------------------------------------------------------------

    def report(
        self,
        model_name: str,
        depth: int,
        offload_targets: Optional[Sequence[str]] = None,
        n_units: Optional[int] = None,
        solver_stages: int = 1,
    ) -> ExecutionTimeReport:
        """Execution-time report for one Table-5 row.

        ``model_name`` may be any Table-4 variant or the Table-5 row name
        "ODENet-3".  When ``offload_targets`` is omitted the paper's targets
        (:data:`PAPER_OFFLOAD_TARGETS`) are used.  ``n_units`` overrides the
        model's default MAC-unit count for this report only (no mutation).
        ``solver_stages`` multiplies the execution count of every ODEBlock
        layer: a higher-order Runge-Kutta solver evaluates the block dynamics
        ``stages`` times per step (Euler, the paper's choice, is 1).
        """

        solver_stages = check_count("solver_stages", solver_stages, 1)
        spec = variant_spec(table4_variant(model_name), depth)
        if offload_targets is None:
            offload_targets = PAPER_OFFLOAD_TARGETS.get(model_name, ())
        targets = tuple(offload_targets)

        entries: List[LayerTimeEntry] = []
        for layer in LAYER_ORDER:
            plan = spec.plan(layer)
            executions = plan.total_executions
            if executions == 0:
                continue
            if plan.realization == BlockRealization.ODEBLOCK:
                executions *= solver_stages
            sw = self.software_layer_seconds(layer)
            offloaded = layer in targets
            pl = self.pl_layer_seconds(layer, n_units) if offloaded else None
            entries.append(
                LayerTimeEntry(
                    layer=layer,
                    executions=executions,
                    software_seconds_per_execution=sw,
                    pl_seconds_per_execution=pl,
                    offloaded=offloaded,
                )
            )
        return ExecutionTimeReport(
            model=model_name,
            depth=depth,
            offload_targets=targets,
            layers=tuple(entries),
            overhead_seconds=self.software_model.per_image_overhead(),
        )

    def speedup_vs_resnet(self, model_name: str, depth: int) -> float:
        """Speedup of an offloaded model over the pure-software ResNet-N baseline.

        Section 4.4: "rODENet-3-56 is 2.67 times faster than a pure software
        execution of ResNet-56."
        """

        resnet = self.report("ResNet", depth)
        target = self.report(model_name, depth)
        return resnet.total_without_pl / target.total_with_pl

    def parallelism_sweep(
        self,
        model_name: str,
        depth: int,
        unit_counts: Sequence[int] = (1, 4, 8, 16, 32),
    ) -> Dict[int, ExecutionTimeReport]:
        """Speedup sensitivity to the MAC-unit count (ablation E9)."""

        return {n: self.report(model_name, depth, n_units=n) for n in unit_counts}
