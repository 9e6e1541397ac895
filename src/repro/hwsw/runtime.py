"""Hardware/software co-execution runtime (Figure 3 of the paper).

:class:`HwSwRuntime` runs prediction for one of the executable networks with
some layer groups offloaded to the simulated PL part:

* software layer groups execute through the :mod:`repro.nn` modules of the
  :class:`~repro.core.architectures.OdeNetModel` (the PS part);
* offloaded ODEBlock layer groups execute through a
  :class:`~repro.fpga.odeblock_hw.HardwareODEBlock` built from the *same*
  trained weights, quantised to Q20 — i.e. the identical computation, but in
  fixed point.

The runtime therefore answers two questions at once: "does offloading change
the prediction?" (functional fidelity) and "what does the offloaded execution
cost?".  The datapath only computes; the runtime prices each invocation from
its :class:`~repro.core.execution_model.ExecutionTimeModel` (the conv_x16
cycle count at the PL clock plus the AXI round trip of the block's observed
geometry) and the whole prediction from the same model's Table-5 report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from .. import nn
from ..core.architectures import OdeNetModel
from ..core.odeblock import ODEBlock
from ..fpga.geometry import BlockGeometry
from ..fpga.odeblock_hw import BlockWeights, HardwareODEBlock
from ..nn.tensor import Tensor, no_grad
from .partition import Partition

__all__ = ["PredictionReport", "HwSwRuntime"]


@dataclass
class PredictionReport:
    """Accounting of one batch prediction through the co-execution runtime."""

    batch_size: int
    pl_layers: Tuple[str, ...]
    pl_invocations: Dict[str, int] = field(default_factory=dict, init=False)
    pl_compute_seconds: float = field(default=0.0, init=False)
    pl_transfer_seconds: float = field(default=0.0, init=False)
    modeled_total_without_pl: float = field(default=0.0, init=False)
    modeled_total_with_pl: float = field(default=0.0, init=False)

    @property
    def modeled_speedup(self) -> float:
        if self.modeled_total_with_pl == 0.0:
            return 1.0
        return self.modeled_total_without_pl / self.modeled_total_with_pl


class HwSwRuntime:
    """Run an OdeNetModel with selected ODEBlock layers on the PL simulator
    (a PYNQ-Z2 with 16 MAC units and the Q20 datapath)."""

    def __init__(self, model: OdeNetModel, partition: Partition) -> None:
        # Imported lazily to avoid a circular import with repro.core.
        from ..core.execution_model import ExecutionTimeModel

        self.model = model
        self.partition = partition
        self.execution_model = ExecutionTimeModel()
        self.hardware_blocks: Dict[str, HardwareODEBlock] = {}
        self._build_hardware_blocks()

    # -- construction -------------------------------------------------------------

    def _build_hardware_blocks(self) -> None:
        # Hardware blocks are created lazily (at the first prediction) because
        # the feature-map spatial size depends on the input image size; here we
        # only validate that the requested layers are actually ODEBlocks.
        for layer in self.partition.pl_layers:
            module = self.model.stage_module(layer)
            if not isinstance(module, ODEBlock):
                raise TypeError(
                    f"layer '{layer}' is not realised as an ODEBlock in "
                    f"{self.model.spec.full_name}; only ODEBlock layer groups are "
                    "offloaded in the paper's design"
                )

    def _hardware_block_from(self, module: ODEBlock, layer: str, height: int, width: int) -> HardwareODEBlock:
        dyn = module.dynamics
        channels = module.channels
        geometry = BlockGeometry(
            name=layer,
            in_channels=channels,
            out_channels=channels,
            height=height,
            width=width,
        )
        weights = BlockWeights(
            conv1_weight=dyn.conv1.weight.data.copy(),
            bn1_gamma=dyn.bn1.gamma.data.copy(),
            bn1_beta=dyn.bn1.beta.data.copy(),
            conv2_weight=dyn.conv2.weight.data.copy(),
            bn2_gamma=dyn.bn2.gamma.data.copy(),
            bn2_beta=dyn.bn2.beta.data.copy(),
            bn1_mean=dyn.bn1.running_mean.copy(),
            bn1_var=dyn.bn1.running_var.copy(),
            bn2_mean=dyn.bn2.running_mean.copy(),
            bn2_var=dyn.bn2.running_var.copy(),
        )
        return HardwareODEBlock(geometry, weights, dynamic_bn_stats=False, time_concat=True)

    # -- prediction ------------------------------------------------------------------

    def predict(self, x: np.ndarray) -> Tuple[np.ndarray, PredictionReport]:
        """Predict class logits for a batch, with the partition applied.

        Parameters
        ----------
        x:
            Input batch of shape ``(N, C, H, W)`` (float).

        Returns
        -------
        (logits, report):
            ``logits`` is an ``(N, num_classes)`` array; ``report`` carries
            the PL invocation counts and the modelled execution times.

        Batch ≡ loop holds bit for bit only in the offloaded stages: each
        is one fixed-point ``run_iterations_batch`` call, bit-identical to
        batches of one.  The PS part's float layers (``layer1``'s ODE,
        ``fc``) go through BLAS, which rounds by batch shape, so a batch's
        logits agree with batches of one to within 1e-12, not bitwise.
        """

        model = self.model
        model.eval()
        x_t = Tensor(np.asarray(x, dtype=np.float64))
        report = PredictionReport(batch_size=x_t.shape[0], pl_layers=self.partition.pl_layers)

        with no_grad():
            h = model.bn1(model.conv1(x_t)).relu()
            h = self._run_stage("layer1", h, report)
            h = model.layer2_1(h)
            h = self._run_stage("layer2_2", h, report)
            h = model.layer3_1(h)
            h = self._run_stage("layer3_2", h, report)
            pooled = model.pool(h)
            logits = model.fc(pooled)

        modeled = self.execution_model.report(
            model.spec.name, model.spec.depth, offload_targets=self.partition.pl_layers
        )
        report.modeled_total_without_pl = modeled.total_without_pl * report.batch_size
        report.modeled_total_with_pl = modeled.total_with_pl * report.batch_size
        return logits.data, report

    def _run_stage(self, layer: str, h: Tensor, report: PredictionReport) -> Tensor:
        module = self.model.stage_module(layer)
        if not self.partition.runs_on_pl(layer):
            return module(h)

        if layer not in self.hardware_blocks:
            _, _, height, width = h.shape
            self.hardware_blocks[layer] = self._hardware_block_from(module, layer, height, width)
        ode: ODEBlock = module  # type: ignore[assignment]
        block = self.hardware_blocks[layer]
        state = block.run_iterations_batch(h.data, iterations=ode.num_steps)
        # The PL runs images serially: each of the n images pays one
        # invocation's cycles and AXI round trip per Euler step.  The steps
        # are added one at a time, as the PL runs them; a product by the
        # step count can round differently.
        model = self.execution_model
        compute = model.cycle_model.block_cycles(block.geometry, model.n_units).time_seconds(
            model.board.pl_clock_hz
        )
        transfer = model.transfer_model.block_round_trip(block.geometry).seconds
        compute_s = transfer_s = 0.0
        for _ in range(ode.num_steps):
            compute_s += compute
            transfer_s += transfer
        n = len(state)
        report.pl_invocations[layer] = n * ode.num_steps
        report.pl_compute_seconds += n * compute_s
        report.pl_transfer_seconds += n * transfer_s
        return Tensor(np.maximum(state, 0.0))  # trailing ReLU stays on the PS part

    # -- fidelity ---------------------------------------------------------------------

    def fidelity(self, x: np.ndarray) -> Dict[str, float]:
        """Compare offloaded prediction against the pure-software prediction.

        Returns the max absolute logit difference and the top-1 agreement rate
        between the two execution paths on the given batch.
        """

        logits_hw, _ = self.predict(x)
        self.model.eval()
        with no_grad():
            logits_sw = self.model(Tensor(np.asarray(x, dtype=np.float64))).data
        max_diff = float(np.max(np.abs(logits_hw - logits_sw)))
        agreement = float(np.mean(logits_hw.argmax(axis=1) == logits_sw.argmax(axis=1)))
        return {"max_logit_diff": max_diff, "top1_agreement": agreement}
