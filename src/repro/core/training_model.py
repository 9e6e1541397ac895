"""Training-time model (the paper's future-work direction).

Section 5: "we are planning to offload the training process of the rODENet
variants to FPGA devices."  This module extends the prediction-time model of
:mod:`repro.core.execution_model` to the training loop so that design-space
questions about that future work can be asked today:

* how long does one SGD step / one CIFAR-100 epoch take in pure software on
  the PS part?
* how much of that time lives in the offload target's forward *and backward*
  passes, and what would offloading both to the PL buy?
* how does the adjoint method (which re-integrates the dynamics backwards
  instead of storing the unrolled graph) change the arithmetic count?

Cost conventions (standard back-propagation accounting):

* the backward pass of a convolution costs ~2x its forward MACs (gradient
  with respect to the input plus gradient with respect to the weights);
* training therefore costs ~3x the forward MACs per example, plus the
  element-wise traffic of the optimiser update;
* with the adjoint method the backward pass instead *re-evaluates* the
  dynamics along the reverse trajectory (one forward-equivalent) and
  accumulates the two vector–Jacobian products (two forward-equivalents),
  i.e. ~3x forward per solver step but with O(1) memory — same arithmetic,
  different memory profile, which is exactly the trade-off the paper cites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .execution_model import ExecutionTimeModel, PAPER_OFFLOAD_TARGETS
from .network_spec import LAYER_ORDER
from .variants import table4_variant, variant_spec

__all__ = ["TrainingTimeReport", "TrainingTimeModel"]


# -- multipliers relating training work to prediction work ---------------------------------

#: Backward-pass MACs relative to forward MACs (dL/dx plus dL/dW).
BACKWARD_MAC_FACTOR = 2.0

#: Training work relative to prediction work for one layer execution.
TRAINING_FACTOR = 1.0 + BACKWARD_MAC_FACTOR

#: Extra element-wise passes per parameter for the SGD + momentum +
#: weight-decay update (read grad, update velocity, write weight).
OPTIMIZER_PASSES = 3.0

#: CIFAR-100 training-set size (images per epoch).
IMAGES_PER_EPOCH = 50_000

#: The paper's epoch count (Section 4.3).
EPOCHS = 200


@dataclass(frozen=True)
class TrainingTimeReport:
    """Modelled training cost of one architecture."""

    model: str
    depth: int
    offload_targets: Tuple[str, ...]
    step_seconds_software: float
    step_seconds_offloaded: float
    target_share_percent: float

    @property
    def step_speedup(self) -> float:
        return self.step_seconds_software / self.step_seconds_offloaded

    def epoch_seconds(self, offloaded: bool) -> float:
        per_image = self.step_seconds_offloaded if offloaded else self.step_seconds_software
        return per_image * IMAGES_PER_EPOCH

    def full_training_hours(self, offloaded: bool) -> float:
        return self.epoch_seconds(offloaded) * EPOCHS / 3600.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "model": self.model,
            "N": self.depth,
            "offload": "/".join(self.offload_targets) or "-",
            "train_step_sw_s": self.step_seconds_software,
            "train_step_offloaded_s": self.step_seconds_offloaded,
            "target_share_pct": self.target_share_percent,
            "step_speedup": self.step_speedup,
        }


class TrainingTimeModel:
    """Estimate per-example training time on the PS, with optional PL offload."""

    def __init__(self, execution_model: Optional[ExecutionTimeModel] = None) -> None:
        self.execution_model = execution_model or ExecutionTimeModel()

    # -- per-layer costs -------------------------------------------------------------

    def software_layer_training_seconds(self, layer: str) -> float:
        """Forward + backward software time of one layer-group execution."""

        return self.execution_model.software_layer_seconds(layer) * TRAINING_FACTOR

    def pl_layer_training_seconds(self, layer: str) -> float:
        """Forward + backward PL time of one offloaded layer-group execution.

        The future-work scenario assumes the backward pass is implemented with
        the same MAC array (transposed convolutions reuse the multipliers), so
        it inherits the forward pass's cycles-per-MAC and the same DMA cost per
        traversal.
        """

        return self.execution_model.pl_layer_seconds(layer) * TRAINING_FACTOR

    def optimizer_seconds(self, model_name: str, depth: int) -> float:
        """Parameter-update cost of one SGD step (element-wise passes)."""

        from .parameter_model import variant_parameter_count

        params = variant_parameter_count(table4_variant(model_name), depth)
        sw = self.execution_model.software_model
        return sw.work_time(0.0, elements=params, passes=OPTIMIZER_PASSES)

    # -- reports ------------------------------------------------------------------------

    def report(self, model_name: str, depth: int) -> TrainingTimeReport:
        """Training-step timing for one architecture (per image), with the
        paper's offload targets (:data:`PAPER_OFFLOAD_TARGETS`)."""

        spec = variant_spec(table4_variant(model_name), depth)
        targets = PAPER_OFFLOAD_TARGETS.get(model_name, ())

        software_total = self.execution_model.software_model.per_image_overhead()
        offloaded_total = software_total
        target_software = 0.0
        for layer in LAYER_ORDER:
            executions = spec.plan(layer).total_executions
            if executions == 0:
                continue
            sw = executions * self.software_layer_training_seconds(layer)
            software_total += sw
            if layer in targets:
                target_software += sw
                offloaded_total += executions * self.pl_layer_training_seconds(layer)
            else:
                offloaded_total += sw

        update = self.optimizer_seconds(model_name, depth)
        software_total += update
        offloaded_total += update

        return TrainingTimeReport(
            model=model_name,
            depth=depth,
            offload_targets=targets,
            step_seconds_software=software_total,
            step_seconds_offloaded=offloaded_total,
            target_share_percent=100.0 * target_software / software_total,
        )

    def epoch_table(
        self, models: Sequence[str] = ("ResNet", "rODENet-3"), depth: int = 56
    ) -> Dict[str, Dict[str, float]]:
        """Epoch / full-run projections for a set of architectures."""

        out: Dict[str, Dict[str, float]] = {}
        for name in models:
            report = self.report(name, depth)
            out[name] = {
                "epoch_hours_software": report.epoch_seconds(False) / 3600.0,
                "epoch_hours_offloaded": report.epoch_seconds(True) / 3600.0,
                "full_run_days_software": report.full_training_hours(False) / 24.0,
                "full_run_days_offloaded": report.full_training_hours(True) / 24.0,
                "step_speedup": report.step_speedup,
            }
        return out
