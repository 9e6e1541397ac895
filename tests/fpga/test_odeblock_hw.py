"""Tests for the simulated PL ODEBlock engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fixedpoint import Q16, Q20, QFormat
from repro.fpga import BlockWeights, HardwareODEBlock
from repro.fpga.geometry import BlockGeometry


@pytest.fixture
def small_geometry():
    """A scaled-down block so the functional tests stay fast."""

    return BlockGeometry(name="layer3_2", in_channels=8, out_channels=8, height=4, width=4)


@pytest.fixture
def small_hw_block(small_geometry, rng):
    weights = BlockWeights.random(small_geometry, rng, scale=0.1)
    return HardwareODEBlock(small_geometry, weights)


class TestExecution:
    def test_execute_returns_only_the_next_state(self, small_hw_block, rng):
        z = rng.normal(0, 0.3, size=(1, 8, 4, 4))
        out = small_hw_block.execute_batch(z)
        assert isinstance(out, np.ndarray)
        assert out.shape == z.shape

    def test_execute_without_residual_returns_dynamics(self, small_hw_block, rng):
        z = rng.normal(0, 0.3, size=(1, 8, 4, 4))
        f_only = small_hw_block.dynamics_batch(z)
        with_res = small_hw_block.execute_batch(z)
        np.testing.assert_allclose(with_res, z + f_only, atol=1e-4)

    def test_iterations_equal_euler_unroll(self, small_hw_block, rng):
        """Repeated execution equals manually chaining Euler steps."""

        z = rng.normal(0, 0.2, size=(1, 8, 4, 4))
        manual = z.copy()
        for i in range(3):
            manual = small_hw_block.execute_batch(manual, t=float(i))
        chained = small_hw_block.run_iterations_batch(z, iterations=3)
        assert np.array_equal(chained, manual)

    def test_dynamic_bn_is_default(self, small_geometry, rng):
        weights = BlockWeights.random(small_geometry, rng)
        hw = HardwareODEBlock(small_geometry, weights)
        assert hw.dynamic_bn_stats is True

    def test_quantization_error_small_vs_float_reference(self, small_geometry, rng):
        """The Q20 datapath tracks a float implementation of the same maths."""

        weights = BlockWeights.random(small_geometry, rng, scale=0.1)
        hw = HardwareODEBlock(small_geometry, weights, dynamic_bn_stats=True)

        def float_reference(z):
            from repro.nn import Tensor
            from repro.nn import functional as F
            from repro.nn.layers import Parameter

            h = F.conv2d(Tensor(z), Parameter(weights.conv1_weight), padding=1)
            h = F.batch_norm2d(
                h, Parameter(weights.bn1_gamma), Parameter(weights.bn1_beta),
                np.zeros(8), np.ones(8), training=True,
            ).relu()
            h = F.conv2d(h, Parameter(weights.conv2_weight), padding=1)
            h = F.batch_norm2d(
                h, Parameter(weights.bn2_gamma), Parameter(weights.bn2_beta),
                np.zeros(8), np.ones(8), training=True,
            )
            return h.data

        z = rng.normal(0, 0.3, size=(1, 8, 4, 4))
        error = float(np.max(np.abs(hw.dynamics_batch(z) - float_reference(z))))
        assert error < 0.05

    def test_q16_increases_error_vs_q20(self, small_geometry, rng):
        weights = BlockWeights.random(small_geometry, rng, scale=0.1)
        z = rng.normal(0, 0.3, size=(1, 8, 4, 4))
        out20 = HardwareODEBlock(small_geometry, weights, qformat=Q20).dynamics_batch(z)
        out16 = HardwareODEBlock(small_geometry, weights, qformat=Q16).dynamics_batch(z)
        assert np.max(np.abs(out20 - out16)) > 0


class TestWordLengthLimit:
    @pytest.mark.parametrize("word_length", [33, 40, 48, 64])
    def test_words_past_32_bits_are_rejected(self, small_geometry, rng, word_length):
        weights = BlockWeights.random(small_geometry, rng)
        with pytest.raises(ValueError, match="word_length must be at most 32 bits"):
            HardwareODEBlock(small_geometry, weights, qformat=QFormat(word_length, 16))


@pytest.mark.parametrize(
    "name, shape, time_concat",
    [
        ("conv1_weight", (8, 9, 3, 3), False),  # time-concat kernels, plain block
        ("conv1_weight", (8, 8, 3, 3), True),
        ("conv2_weight", (8, 9, 3, 3), False),
        ("conv2_weight", (8, 8, 1, 1), False),
        ("bn1_gamma", (7,), False),
        ("bn2_beta", (9,), False),
        ("bn1_mean", (7,), False),
        ("bn2_var", (8, 1), False),
    ],
)
def test_misshapen_weights_are_rejected_at_construction(small_geometry, rng, name, shape, time_concat):
    # The shape check runs before the first forward call and names the tensor.
    weights = BlockWeights.random(small_geometry, rng, time_concat=time_concat)
    setattr(weights, name, np.zeros(shape))
    with pytest.raises(ValueError, match=f"{name} shape"):
        HardwareODEBlock(small_geometry, weights, time_concat=time_concat)


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
        out_t0 = hw.execute_batch(z[None], t=0.0)[0]
        out_t1 = hw.execute_batch(z[None], t=1.0)[0]
        assert out_t0.shape == z.shape
        # A non-zero time channel must change the output.
        assert np.max(np.abs(out_t0 - out_t1)) > 1e-6
