"""Tests for the simulated PL ODEBlock engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fixedpoint import Q16, Q20, QFormat
from repro.fpga import BlockWeights, HardwareODEBlock, LAYER3_2
from repro.fpga.geometry import BlockGeometry


@pytest.fixture
def small_geometry():
    """A scaled-down block so the functional tests stay fast."""

    return BlockGeometry(name="layer3_2", in_channels=8, out_channels=8, height=4, width=4)


@pytest.fixture
def small_hw_block(small_geometry, rng):
    weights = BlockWeights.random(small_geometry, rng, scale=0.1)
    return HardwareODEBlock(small_geometry, weights, n_units=4)


class TestConfigurationReports:
    def test_full_size_reports(self, rng):
        weights = BlockWeights.random(LAYER3_2, rng)
        hw = HardwareODEBlock(LAYER3_2, weights, n_units=16)
        assert hw.cycle_breakdown().total == pytest.approx(1.64e6, rel=0.02)
        assert hw.timing_report().meets_timing
        assert hw.resource_estimate().fits()
        assert hw.bram_plan.total_tiles > 0

    def test_conv_x32_fails_timing(self, rng):
        weights = BlockWeights.random(LAYER3_2, rng)
        hw = HardwareODEBlock(LAYER3_2, weights, n_units=32)
        assert not hw.timing_report().meets_timing


class TestExecution:
    def test_execute_shapes_and_report(self, small_hw_block, rng):
        z = rng.normal(0, 0.3, size=(8, 4, 4))
        out, report = small_hw_block.execute(z)
        assert out.shape == z.shape
        assert report.compute_seconds > 0
        assert report.transfer_seconds > 0
        assert report.total_seconds == pytest.approx(report.compute_seconds + report.transfer_seconds)
        assert small_hw_block.invocations == 1

    def test_execute_without_residual_returns_dynamics(self, small_hw_block, rng):
        z = rng.normal(0, 0.3, size=(8, 4, 4))
        f_only = small_hw_block.dynamics(z)
        with_res, _ = small_hw_block.execute(z)
        np.testing.assert_allclose(with_res, z + f_only, atol=1e-4)

    def test_run_iterations_accumulates_time(self, small_hw_block, rng):
        z = rng.normal(0, 0.3, size=(8, 4, 4))
        _, total, reports = small_hw_block.run_iterations(z, iterations=3)
        assert len(reports) == 3
        assert total == pytest.approx(sum(r.total_seconds for r in reports))

    def test_iterations_equal_euler_unroll(self, small_hw_block, rng):
        """Repeated execution equals manually chaining Euler steps."""

        z = rng.normal(0, 0.2, size=(8, 4, 4))
        manual = z.copy()
        for i in range(3):
            manual = small_hw_block.execute_batch(manual[None], t=float(i))[0][0]
        chained, _, _ = small_hw_block.run_iterations(z, iterations=3)
        np.testing.assert_allclose(chained, manual, atol=1e-9)

    def test_dynamic_bn_is_default(self, small_geometry, rng):
        weights = BlockWeights.random(small_geometry, rng)
        hw = HardwareODEBlock(small_geometry, weights)
        assert hw.dynamic_bn_stats is True

    def test_quantization_error_small_vs_float_reference(self, small_geometry, rng):
        """The Q20 datapath tracks a float implementation of the same maths."""

        weights = BlockWeights.random(small_geometry, rng, scale=0.1)
        hw = HardwareODEBlock(small_geometry, weights, n_units=4, dynamic_bn_stats=True)

        def float_reference(z):
            from repro.nn import Tensor
            from repro.nn import functional as F
            from repro.nn.layers import Parameter

            h = F.conv2d(Tensor(z[None]), Parameter(weights.conv1_weight), padding=1)
            h = F.batch_norm2d(
                h, Parameter(weights.bn1_gamma), Parameter(weights.bn1_beta),
                np.zeros(8), np.ones(8), training=True,
            ).relu()
            h = F.conv2d(h, Parameter(weights.conv2_weight), padding=1)
            h = F.batch_norm2d(
                h, Parameter(weights.bn2_gamma), Parameter(weights.bn2_beta),
                np.zeros(8), np.ones(8), training=True,
            )
            return h.data[0]

        z = rng.normal(0, 0.3, size=(8, 4, 4))
        error = float(np.max(np.abs(hw.dynamics(z) - float_reference(z))))
        assert error < 0.05

    def test_q16_increases_error_vs_q20(self, small_geometry, rng):
        weights = BlockWeights.random(small_geometry, rng, scale=0.1)
        z = rng.normal(0, 0.3, size=(8, 4, 4))
        out20 = HardwareODEBlock(small_geometry, weights, qformat=Q20).dynamics(z)
        out16 = HardwareODEBlock(small_geometry, weights, qformat=Q16).dynamics(z)
        assert np.max(np.abs(out20 - out16)) > 0


class TestWordLengthLimit:
    @pytest.mark.parametrize("word_length", [33, 40, 48, 64])
    def test_words_past_32_bits_are_rejected(self, small_geometry, rng, word_length):
        weights = BlockWeights.random(small_geometry, rng)
        with pytest.raises(ValueError, match="word_length must be at most 32 bits"):
            HardwareODEBlock(small_geometry, weights, qformat=QFormat(word_length, 16))


def test_strided_blocks_are_rejected():
    # The PL datapath is stride-1 only, and a block geometry has no stride
    # to set: a strided block cannot reach HardwareODEBlock at all.
    with pytest.raises(TypeError, match="stride"):
        BlockGeometry("ds", 8, 8, 4, 4, stride=2)


class TestTimeConcat:
    def test_time_concat_requires_wider_conv1(self, small_geometry, rng):
        c = small_geometry.out_channels
        weights = BlockWeights(
            conv1_weight=rng.normal(0, 0.1, size=(c, c + 1, 3, 3)),
            bn1_gamma=np.ones(c),
            bn1_beta=np.zeros(c),
            conv2_weight=rng.normal(0, 0.1, size=(c, c + 1, 3, 3)),
            bn2_gamma=np.ones(c),
            bn2_beta=np.zeros(c),
            bn1_mean=np.zeros(c),
            bn1_var=np.ones(c),
            bn2_mean=np.zeros(c),
            bn2_var=np.ones(c),
        )
        hw = HardwareODEBlock(
            small_geometry, weights, time_concat=True, dynamic_bn_stats=False
        )
        z = rng.normal(0, 0.3, size=(c, 4, 4))
        out_t0 = hw.execute_batch(z[None], t=0.0)[0][0]
        out_t1 = hw.execute_batch(z[None], t=1.0)[0][0]
        assert out_t0.shape == z.shape
        # A non-zero time channel must change the output.
        assert np.max(np.abs(out_t0 - out_t1)) > 1e-6
