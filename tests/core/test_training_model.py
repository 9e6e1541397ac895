"""Tests for the training-time model (future-work analysis)."""

from __future__ import annotations

import pytest

from repro.core import ExecutionTimeModel, TrainingTimeModel
from repro.core.training_model import BACKWARD_MAC_FACTOR, TRAINING_FACTOR


@pytest.fixture(scope="module")
def model():
    return TrainingTimeModel()


class TestPerLayerCosts:
    def test_training_costs_three_times_prediction(self, model):
        exec_model = model.execution_model
        for layer in ("layer1", "layer2_2", "layer3_2"):
            assert model.software_layer_training_seconds(layer) == pytest.approx(
                3.0 * exec_model.software_layer_seconds(layer)
            )
            assert model.pl_layer_training_seconds(layer) == pytest.approx(
                3.0 * exec_model.pl_layer_seconds(layer)
            )

    def test_training_factor_is_forward_plus_backward(self, model):
        assert TRAINING_FACTOR == 1.0 + BACKWARD_MAC_FACTOR
        exec_model = model.execution_model
        assert model.software_layer_training_seconds("layer3_2") == (
            exec_model.software_layer_seconds("layer3_2") * TRAINING_FACTOR
        )
        assert model.pl_layer_training_seconds("layer3_2") == (
            exec_model.pl_layer_seconds("layer3_2") * TRAINING_FACTOR
        )

    def test_optimizer_cost_scales_with_parameters(self, model):
        assert model.optimizer_seconds("ResNet", 56) > model.optimizer_seconds("rODENet-3", 56)
        assert model.optimizer_seconds("rODENet-3", 56) > 0


class TestReports:
    def test_training_step_slower_than_prediction(self, model):
        prediction = ExecutionTimeModel().report("rODENet-3", 56).total_without_pl
        training = model.report("rODENet-3", 56).step_seconds_software
        assert training > 2.5 * prediction

    def test_offload_speedup_similar_to_prediction_speedup(self, model):
        """Forward and backward scale together, so the training-step speedup
        tracks the prediction speedup of Table 5."""

        report = model.report("rODENet-3", 56)
        assert report.step_speedup == pytest.approx(2.66, abs=0.15)

    def test_resnet_has_no_offload_benefit(self, model):
        report = model.report("ResNet", 56)
        assert report.step_speedup == pytest.approx(1.0)
        assert report.target_share_percent == 0.0

    def test_target_share_close_to_prediction_share(self, model):
        training_share = model.report("rODENet-3", 56).target_share_percent
        prediction_share = ExecutionTimeModel().report("rODENet-3", 56).target_ratio_percent[0]
        assert training_share == pytest.approx(prediction_share, abs=3.0)

    def test_epoch_table_projections(self, model):
        table = model.epoch_table(("ResNet", "rODENet-3"), 56)
        assert table["rODENet-3"]["epoch_hours_offloaded"] < table["rODENet-3"]["epoch_hours_software"]
        assert table["ResNet"]["epoch_hours_offloaded"] == pytest.approx(
            table["ResNet"]["epoch_hours_software"]
        )
        # The projection makes the paper's implicit point: CIFAR-100 training
        # on the embedded CPU alone is utterly impractical (months).
        assert table["ResNet"]["full_run_days_software"] > 100

    def test_report_as_dict(self, model):
        d = model.report("rODENet-2", 32).as_dict()
        assert {"model", "N", "offload", "train_step_sw_s", "step_speedup"} <= set(d)
