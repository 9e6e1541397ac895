"""Tests for the hardware/software co-execution runtime."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import build_network
from repro.fpga import AxiTransferModel, OdeBlockCycleModel
from repro.hwsw import HwSwRuntime, Partition, PredictionReport
from repro.nn import Tensor
from repro.platform import PYNQ_Z2


@pytest.fixture(scope="module")
def small_model():
    """A reduced rODENet-3 model (ODEBlock on layer3_2) for fast execution."""

    model = build_network("rODENet-3", 20, num_classes=5, base_width=4)
    model.eval()
    return model


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(11)
    return rng.normal(0, 0.5, size=(2, 3, 16, 16))


class TestConstruction:
    def test_rejects_non_odeblock_layers(self, small_model):
        with pytest.raises(TypeError, match="not realised as an ODEBlock"):
            HwSwRuntime(small_model, Partition.offload("layer1"))

    def test_accepts_odeblock_layer(self, small_model):
        runtime = HwSwRuntime(small_model, Partition.offload("layer3_2"))
        assert runtime.partition.pl_layers == ("layer3_2",)


class TestPrediction:
    def test_logits_shape_and_report(self, small_model, batch):
        runtime = HwSwRuntime(small_model, Partition.offload("layer3_2"))
        logits, report = runtime.predict(batch)
        assert logits.shape == (2, 5)
        assert report.batch_size == 2
        # rODENet-3-20 executes layer3_2 six times per image.
        assert report.pl_invocations["layer3_2"] == 2 * 6
        assert report.pl_compute_seconds > 0
        assert report.pl_transfer_seconds > 0

    def test_pl_seconds_are_the_models_per_invocation_values(self, small_model, batch):
        """Each serial invocation (one image, one Euler step) costs the
        conv_x16 cycle model's time at the PL clock plus the AXI round trip
        of the block's observed geometry, summed one term per step."""

        runtime = HwSwRuntime(small_model, Partition.offload("layer3_2"))
        _, report = runtime.predict(batch)
        geometry = runtime.hardware_blocks["layer3_2"].geometry
        compute = OdeBlockCycleModel().block_cycles(geometry, 16).time_seconds(
            PYNQ_Z2.pl_clock_hz
        )
        transfer = AxiTransferModel(PYNQ_Z2).block_round_trip(geometry).seconds
        steps = 6  # rODENet-3-20's layer3_2 Euler steps
        expected_compute = expected_transfer = 0.0
        for _ in range(steps):
            expected_compute += compute
            expected_transfer += transfer
        assert report.pl_compute_seconds == len(batch) * expected_compute
        assert report.pl_transfer_seconds == len(batch) * expected_transfer

    def test_batch_equals_stacked_single_image_predictions(self, small_model, batch):
        """One PL call per offloaded stage: its output is bit-identical to
        running each image as a batch of one, and the report accounts for
        every image the single-image predictions account for.

        The logits match to rounding only: the PS part's float layers
        (``layer1``'s ODE, ``fc``) round differently for a batch of one.
        """

        runtime = HwSwRuntime(small_model, Partition.offload("layer3_2"))
        state = np.random.default_rng(3).normal(0, 0.5, size=(3, 16, 4, 4))
        stage = runtime._run_stage("layer3_2", Tensor(state), PredictionReport(3, ("layer3_2",)))
        one_by_one = [
            runtime._run_stage("layer3_2", Tensor(state[i:i + 1]), PredictionReport(1, ("layer3_2",)))
            for i in range(3)
        ]
        assert np.array_equal(stage.data, np.concatenate([one.data for one in one_by_one]))

        logits, report = runtime.predict(batch)
        singles = [runtime.predict(batch[i:i + 1]) for i in range(len(batch))]
        np.testing.assert_allclose(
            logits, np.concatenate([one for one, _ in singles]), rtol=0, atol=1e-12
        )
        reports = [one for _, one in singles]
        assert report.batch_size == sum(r.batch_size for r in reports)
        assert report.pl_layers == reports[0].pl_layers
        assert report.pl_invocations == {
            "layer3_2": sum(r.pl_invocations["layer3_2"] for r in reports)
        }
        for name in (
            "pl_compute_seconds", "pl_transfer_seconds",
            "modeled_total_without_pl", "modeled_total_with_pl",
        ):
            assert getattr(report, name) == pytest.approx(sum(getattr(r, name) for r in reports))

    def test_software_only_partition_matches_model(self, small_model, batch):
        runtime = HwSwRuntime(small_model, Partition())
        logits, report = runtime.predict(batch)
        from repro.nn import Tensor, no_grad

        with no_grad():
            expected = small_model(Tensor(batch)).data
        np.testing.assert_allclose(logits, expected, rtol=1e-10)
        assert report.pl_invocations == {}

    def test_offloaded_prediction_close_to_software(self, small_model, batch):
        """Q20 quantisation must not change the prediction materially."""

        runtime = HwSwRuntime(small_model, Partition.offload("layer3_2"))
        fidelity = runtime.fidelity(batch)
        assert fidelity["top1_agreement"] == 1.0
        assert fidelity["max_logit_diff"] < 0.05

    def test_modeled_times_populated(self, small_model, batch):
        runtime = HwSwRuntime(small_model, Partition.offload("layer3_2"))
        _, report = runtime.predict(batch)
        assert report.modeled_total_without_pl > report.modeled_total_with_pl > 0
        assert report.modeled_speedup > 1.0

    def test_hardware_block_created_lazily_with_observed_shape(self, small_model, batch):
        runtime = HwSwRuntime(small_model, Partition.offload("layer3_2"))
        assert runtime.hardware_blocks == {}
        runtime.predict(batch)
        geom = runtime.hardware_blocks["layer3_2"].geometry
        # 16x16 input with two stride-2 stages -> 4x4 feature map, 16 channels.
        assert (geom.height, geom.width, geom.in_channels) == (4, 4, 16)

    def test_deterministic_predictions(self, small_model, batch):
        runtime = HwSwRuntime(small_model, Partition.offload("layer3_2"))
        logits1, _ = runtime.predict(batch)
        logits2, _ = runtime.predict(batch)
        np.testing.assert_allclose(logits1, logits2)
