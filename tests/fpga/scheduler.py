"""Cycle-approximate schedule simulation of the PL conv/BN datapath.

The analytical cycle model (:mod:`repro.fpga.cycles`) expresses the execution
time of the five-step ODEBlock as closed-form expressions calibrated against
the paper's published counts.  This module provides an *operational*
cross-check: it simulates the schedule the hardware actually follows —
output channels assigned to multiply-add units, each unit issuing one
multiply-accumulate per cycle over the receptive field, followed by the
element-serial batch-normalisation passes — and counts cycles by stepping
that schedule, not by formula.

The simulator is intentionally simple (no memory-port contention beyond the
issue rate, no pipeline fill/drain modelling) but it is derived from the
*structure* of the datapath rather than from the fitted constants, so
agreement between the two models (see ``tests/fpga/test_scheduler.py``)
increases confidence that the calibrated constants mean what they claim.

Nothing outside the tests runs it, so it lives here as their oracle:
``test_scheduler.py`` and ``test_plan_kernels.py`` import it as ``scheduler``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.fpga.geometry import BlockGeometry

__all__ = ["ScheduleTrace", "UnitTrace", "DatapathScheduler", "schedule_cycles_kernel"]


def schedule_cycles_kernel(
    geometry: BlockGeometry,
    n_units,
    issue_interval: int = 5,
    bn_passes: int = 3,
    bn_cycles_per_element_pass: int = 7,
    relu_fused: bool = True,
):
    """Closed-form total cycles of the simulated schedule, over ``n_units`` axes.

    The stepped simulation's per-pass makespan is set by the most-loaded MAC
    unit, which under round-robin channel assignment owns
    ``ceil(out_channels / units)`` output channels.  This expresses that
    directly as integer array arithmetic, so sweeping a million unit counts
    costs one vector op instead of a million schedule walks.  Equality with
    :meth:`DatapathScheduler.simulate_block` is pinned by
    ``tests/fpga/test_plan_kernels.py``.
    """

    units = np.minimum(np.maximum(np.asarray(n_units, dtype=np.int64), 1), geometry.out_channels)
    pixels = geometry.out_height * geometry.out_width
    max_channels = -(-geometry.out_channels // units)  # most-loaded unit
    conv_cycles = np.zeros_like(units, dtype=np.float64)
    for conv_index in range(geometry.num_convs):
        in_channels = geometry.in_channels if conv_index == 0 else geometry.out_channels
        per_output_macs = in_channels * geometry.kernel * geometry.kernel
        conv_cycles = conv_cycles + max_channels * pixels * per_output_macs * issue_interval
    bn_cycles = (
        geometry.num_batch_norms
        * geometry.output_elements
        * bn_passes
        * bn_cycles_per_element_pass
    )
    relu_cycles = 0.0 if relu_fused else geometry.output_elements / units
    return conv_cycles + bn_cycles + relu_cycles


@dataclass(frozen=True)
class UnitTrace:
    """Work performed by one multiply-add unit during one convolution pass."""

    unit: int
    output_channels: Tuple[int, ...]
    macs_issued: int
    busy_cycles: int


@dataclass
class ScheduleTrace:
    """Full record of one simulated ODEBlock execution."""

    block: str
    n_units: int
    conv_passes: List[List[UnitTrace]] = field(default_factory=list)
    conv_cycles: float = 0.0
    bn_cycles: float = 0.0
    relu_cycles: float = 0.0

    @property
    def total_cycles(self) -> float:
        return self.conv_cycles + self.bn_cycles + self.relu_cycles

    def utilization(self) -> float:
        """Average MAC-unit utilisation across the convolution passes.

        1.0 means every unit was busy every cycle of every pass; lower values
        indicate load imbalance (output channels not divisible by the unit
        count).
        """

        busy = 0
        capacity = 0
        for pass_traces in self.conv_passes:
            pass_cycles = max(t.busy_cycles for t in pass_traces)
            busy += sum(t.busy_cycles for t in pass_traces)
            capacity += pass_cycles * len(pass_traces)
        return busy / capacity if capacity else 1.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "conv_cycles": self.conv_cycles,
            "bn_cycles": self.bn_cycles,
            "relu_cycles": self.relu_cycles,
            "total_cycles": self.total_cycles,
            "mac_utilization": self.utilization(),
        }


class DatapathScheduler:
    """Simulate the MAC-unit schedule of the PL ODEBlock.

    Parameters
    ----------
    issue_interval:
        Clock cycles between successive multiply-accumulates issued by one
        unit.  The paper's datapath is not fully pipelined (a BRAM read, a
        DSP48 multiply and an accumulate share the loop), which is what the
        calibrated value of 5 cycles per MAC reflects.
    bn_passes:
        Element-serial passes each batch-normalisation step performs:
        mean accumulation, variance accumulation, and the normalise/scale
        pass (3 by default).
    bn_cycles_per_element_pass:
        Cycles per element for each of those passes (7 by default: read,
        subtract, multiply, divide-step, write and loop control), chosen so
        that 3 passes x 7 cycles = 21 cycles/element, the calibrated constant.
    """

    def __init__(
        self,
        issue_interval: int = 5,
        bn_passes: int = 3,
        bn_cycles_per_element_pass: int = 7,
        relu_fused: bool = True,
    ) -> None:
        if issue_interval < 1:
            raise ValueError("issue_interval must be >= 1")
        self.issue_interval = issue_interval
        self.bn_passes = bn_passes
        self.bn_cycles_per_element_pass = bn_cycles_per_element_pass
        self.relu_fused = relu_fused

    # -- convolution ------------------------------------------------------------

    def assign_output_channels(self, out_channels: int, n_units: int) -> List[Tuple[int, ...]]:
        """Round-robin assignment of output channels to MAC units."""

        units = max(1, min(n_units, out_channels))
        assignment: List[List[int]] = [[] for _ in range(units)]
        for channel in range(out_channels):
            assignment[channel % units].append(channel)
        return [tuple(chs) for chs in assignment]

    def simulate_conv_pass(self, geometry: BlockGeometry, n_units: int, in_channels: int) -> List[UnitTrace]:
        """Simulate one convolution step (all output pixels, all channels)."""

        per_output_macs = in_channels * geometry.kernel * geometry.kernel
        pixels = geometry.out_height * geometry.out_width
        traces = []
        for unit, channels in enumerate(self.assign_output_channels(geometry.out_channels, n_units)):
            macs = len(channels) * pixels * per_output_macs
            traces.append(
                UnitTrace(
                    unit=unit,
                    output_channels=channels,
                    macs_issued=macs,
                    busy_cycles=macs * self.issue_interval,
                )
            )
        return traces

    # -- batch normalisation ------------------------------------------------------

    def simulate_bn_pass(self, geometry: BlockGeometry) -> float:
        """Cycles of one batch-normalisation step (element-serial)."""

        return geometry.output_elements * self.bn_passes * self.bn_cycles_per_element_pass

    # -- whole block -----------------------------------------------------------------

    def simulate_block(self, geometry: BlockGeometry, n_units: int) -> ScheduleTrace:
        """Simulate the five-step pipeline: conv, BN, ReLU, conv, BN."""

        trace = ScheduleTrace(block=geometry.name, n_units=n_units)

        # First convolution reads the block input; the second reads the
        # intermediate feature map (same channel count for the repeated
        # blocks the paper offloads).
        for conv_index in range(geometry.num_convs):
            in_channels = geometry.in_channels if conv_index == 0 else geometry.out_channels
            pass_traces = self.simulate_conv_pass(geometry, n_units, in_channels)
            trace.conv_passes.append(pass_traces)
            trace.conv_cycles += max(t.busy_cycles for t in pass_traces)

        trace.bn_cycles = geometry.num_batch_norms * self.simulate_bn_pass(geometry)
        if not self.relu_fused:
            units = max(1, min(n_units, geometry.out_channels))
            trace.relu_cycles = geometry.output_elements / units
        return trace

    def sweep(self, geometry: BlockGeometry, unit_counts=(1, 4, 8, 16, 32)) -> Dict[int, ScheduleTrace]:
        """Simulate a sweep of MAC-unit counts (the paper's conv_xN designs)."""

        return {n: self.simulate_block(geometry, n) for n in unit_counts}

    def total_cycles_batch(self, geometry: BlockGeometry, n_units) -> np.ndarray:
        """Total cycles over a whole ``n_units`` axis, without stepping.

        Equal to ``simulate_block(geometry, n).total_cycles`` for every entry
        (the closed form of the same schedule).
        """

        return np.asarray(
            schedule_cycles_kernel(
                geometry,
                n_units,
                issue_interval=self.issue_interval,
                bn_passes=self.bn_passes,
                bn_cycles_per_element_pass=self.bn_cycles_per_element_pass,
                relu_fused=self.relu_fused,
            ),
            dtype=np.float64,
        )
