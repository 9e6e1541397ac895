"""Bit-exactness of the batched HardwareODEBlock forward engine.

The batched path exists purely for throughput (accuracy-vs-format sweeps run
N images per quantise-once call); semantically the board processes images one
at a time.  Every test here therefore asserts **bitwise** equality between
one batched call and N calls on batches of one — including the regimes where
fixed-point arithmetic is most fragile: saturating inputs at extreme
Q-formats, truncating renormalisation of negative products, and the
per-image dynamic batch-normalisation statistics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fixedpoint import FxArray, Q8, Q16, Q20, QFormat
from repro.fpga import GROUP_ELEMENTS, BlockWeights, HardwareODEBlock, image_groups
from repro.fpga.geometry import LAYER1, BlockGeometry
from repro.fpga.ops import hw_batch_norm, hw_conv2d


def _image(x: FxArray, i: int) -> FxArray:
    """Image ``i`` of a batched FxArray, as a batch of one."""

    return FxArray(x.raw[i:i + 1], x.fmt)


def batches_of_one(fn, z: np.ndarray) -> np.ndarray:
    """``fn`` applied to each image of ``z`` as a batch of one, restacked."""

    return np.concatenate([fn(z[i:i + 1]) for i in range(len(z))])


def small_geometry(channels: int = 8, size: int = 4) -> BlockGeometry:
    return BlockGeometry(
        name="layer3_2", in_channels=channels, out_channels=channels, height=size, width=size
    )


def make_weights(geometry: BlockGeometry, seed: int = 1, time_concat: bool = False, scale: float = 0.2):
    return BlockWeights.random(
        geometry, np.random.default_rng(seed), scale=scale, time_concat=time_concat
    )


def make_batch(geometry: BlockGeometry, n: int = 5, scale: float = 0.5, seed: int = 7):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, scale, size=(n, geometry.in_channels, geometry.height, geometry.width))


EXTREME_FORMATS = [
    pytest.param(Q20, 0.4, id="Q20"),
    pytest.param(Q16, 0.4, id="Q16"),
    pytest.param(Q8, 2.0, id="Q8-saturating"),
    pytest.param(QFormat(6, 4), 3.0, id="Q6.4-hard-saturation"),
    pytest.param(QFormat(4, 2), 3.0, id="Q4.2-pathological"),
    pytest.param(QFormat(32, 30), 4.0, id="Q32.30-tiny-range"),
]


class TestBatchedOps:
    """The primitive operators, batched vs per-image."""

    @pytest.mark.parametrize("fmt,scale", EXTREME_FORMATS)
    def test_conv_batch_bitwise_equals_singles(self, fmt, scale):
        geometry = small_geometry()
        rng = np.random.default_rng(3)
        x = FxArray.from_float(make_batch(geometry, 4, scale), fmt)
        w = FxArray.from_float(rng.normal(0, 0.3, size=(8, 8, 3, 3)), fmt)
        batched = hw_conv2d(x, w)
        for i in range(4):
            assert np.array_equal(batched.raw[i:i + 1], hw_conv2d(_image(x, i), w).raw)

    @pytest.mark.parametrize("fmt,scale", EXTREME_FORMATS)
    def test_batch_norm_dynamic_stats_are_per_image(self, fmt, scale):
        geometry = small_geometry()
        x = FxArray.from_float(make_batch(geometry, 4, scale), fmt)
        gamma = FxArray.from_float(np.linspace(0.5, 1.5, 8), fmt)
        beta = FxArray.from_float(np.linspace(-0.2, 0.2, 8), fmt)
        batched = hw_batch_norm(x, gamma, beta)
        for i in range(4):
            assert np.array_equal(batched.raw[i:i + 1], hw_batch_norm(_image(x, i), gamma, beta).raw)

    def test_batch_norm_running_stats_broadcast(self):
        geometry = small_geometry()
        x = FxArray.from_float(make_batch(geometry, 3), Q16)
        gamma = FxArray.from_float(np.ones(8), Q16)
        beta = FxArray.from_float(np.zeros(8), Q16)
        mean = FxArray.from_float(np.linspace(-0.1, 0.1, 8), Q16)
        var = FxArray.from_float(np.linspace(0.5, 1.5, 8), Q16)
        batched = hw_batch_norm(x, gamma, beta, running_mean=mean, running_var=var, dynamic_stats=False)
        for i in range(3):
            single = hw_batch_norm(
                _image(x, i), gamma, beta, running_mean=mean, running_var=var, dynamic_stats=False
            )
            assert np.array_equal(batched.raw[i:i + 1], single.raw)


class TestBatchedForward:
    """The full five-step pipeline through HardwareODEBlock."""

    @pytest.mark.parametrize("fmt,scale", EXTREME_FORMATS)
    def test_dynamics_batch_bitwise_equals_singles(self, fmt, scale):
        geometry = small_geometry()
        block = HardwareODEBlock(geometry, make_weights(geometry), qformat=fmt)
        z = make_batch(geometry, 5, scale)
        assert np.array_equal(block.dynamics_batch(z), batches_of_one(block.dynamics_batch, z))

    @pytest.mark.parametrize("fmt,scale", EXTREME_FORMATS)
    def test_execute_batch_residual_path(self, fmt, scale):
        geometry = small_geometry()
        block = HardwareODEBlock(geometry, make_weights(geometry), qformat=fmt)
        z = make_batch(geometry, 4, scale)
        out_batch = block.execute_batch(z, step_size=0.5, t=0.25)
        out_single = batches_of_one(
            lambda one: block.execute_batch(one, step_size=0.5, t=0.25), z
        )
        assert np.array_equal(out_batch, out_single)

    def test_time_concat_mode_bitwise(self):
        geometry = small_geometry()
        block = HardwareODEBlock(
            geometry, make_weights(geometry, time_concat=True),
            qformat=Q16, time_concat=True,
        )
        z = make_batch(geometry, 4)
        batched = block.execute_batch(z, t=0.75)
        singles = batches_of_one(lambda one: block.execute_batch(one, t=0.75), z)
        assert np.array_equal(batched, singles)

    def test_run_iterations_batch_matches_per_image(self):
        geometry = small_geometry()
        block = HardwareODEBlock(geometry, make_weights(geometry), qformat=Q16)
        z = make_batch(geometry, 3)
        final_batch = block.run_iterations_batch(z, iterations=3)
        singles = batches_of_one(lambda one: block.run_iterations_batch(one, iterations=3), z)
        assert np.array_equal(final_batch, singles)

    def test_batch_of_one_equals_single(self):
        geometry = small_geometry()
        block = HardwareODEBlock(geometry, make_weights(geometry), qformat=Q8)
        z = make_batch(geometry, 3, scale=1.5)
        assert np.array_equal(block.dynamics_batch(z[:1]), block.dynamics_batch(z)[:1])

    def test_dynamics_batch_rejects_single_image(self):
        geometry = small_geometry()
        block = HardwareODEBlock(geometry, make_weights(geometry))
        with pytest.raises(ValueError, match="batch"):
            block.dynamics_batch(np.zeros((8, 4, 4)))
        with pytest.raises(ValueError, match="batch"):
            block.execute_batch(np.zeros((8, 4, 4)))

    def test_full_layer1_geometry_spot_check(self):
        """One real paper geometry (16ch 32x32), small batch, Q20."""

        block = HardwareODEBlock(LAYER1, make_weights(LAYER1, scale=0.1))
        z = make_batch(LAYER1, 2, scale=0.3)
        assert np.array_equal(block.dynamics_batch(z), batches_of_one(block.dynamics_batch, z))


class TestGroupBoundary:
    """A layer1 batch of one full image group plus one image runs as two
    groups, the second partial; every image must match its own call."""

    N = GROUP_ELEMENTS // LAYER1.input_elements + 1

    def test_batch_spans_a_full_and_a_partial_group(self):
        groups = image_groups(self.N, LAYER1.input_elements)
        assert [(g.start, g.stop) for g in groups] == [(0, 4), (4, 8)]
        assert list(range(self.N))[groups[-1]] == [4]

    @pytest.mark.parametrize("fmt,scale", [
        pytest.param(Q20, 0.3, id="Q20"),
        pytest.param(QFormat(4, 2), 3.0, id="Q4.2-hot"),
    ])
    def test_dynamics_batch_across_the_group_boundary(self, fmt, scale):
        block = HardwareODEBlock(LAYER1, make_weights(LAYER1, scale=0.1), qformat=fmt)
        z = make_batch(LAYER1, self.N, scale=scale)
        assert np.array_equal(block.dynamics_batch(z), batches_of_one(block.dynamics_batch, z))

    @pytest.mark.parametrize("fmt,scale", [
        pytest.param(Q16, 0.3, id="Q16"),
        pytest.param(QFormat(4, 2), 3.0, id="Q4.2-hot"),
    ])
    @pytest.mark.parametrize("time_concat", [False, True], ids=["plain", "time-concat"])
    def test_execute_batch_across_the_group_boundary(self, fmt, scale, time_concat):
        block = HardwareODEBlock(
            LAYER1, make_weights(LAYER1, time_concat=time_concat, scale=0.1),
            qformat=fmt, time_concat=time_concat,
        )
        z = make_batch(LAYER1, self.N, scale=scale)
        batched = block.execute_batch(z, step_size=0.5, t=0.75)
        singles = batches_of_one(
            lambda one: block.execute_batch(one, step_size=0.5, t=0.75), z
        )
        assert np.array_equal(batched, singles)


class TestSaturationEdgeCases:
    """Inputs engineered to sit exactly on the saturation/rounding edges."""

    def test_all_inputs_at_format_limits(self):
        geometry = small_geometry()
        fmt = QFormat(8, 5)
        block = HardwareODEBlock(geometry, make_weights(geometry), qformat=fmt)
        z = np.empty((4, 8, 4, 4))
        z[0] = fmt.max_value
        z[1] = fmt.min_value
        z[2] = 10.0 * fmt.max_value  # far out of range: quantises to the rails
        z[3] = fmt.resolution / 3.0  # rounds to zero or one LSB
        assert np.array_equal(block.dynamics_batch(z), batches_of_one(block.dynamics_batch, z))

    def test_mixed_saturating_and_tame_images_do_not_interact(self):
        """A saturating image must not perturb its tame neighbours."""

        geometry = small_geometry()
        fmt = QFormat(8, 4)
        block = HardwareODEBlock(geometry, make_weights(geometry), qformat=fmt)
        tame = make_batch(geometry, 2, scale=0.3)
        hot = np.full((1, 8, 4, 4), 100.0)
        mixed = np.concatenate([tame[:1], hot, tame[1:]])
        batched = block.dynamics_batch(mixed)
        assert np.array_equal(batched[0:1], block.dynamics_batch(tame[0:1]))
        assert np.array_equal(batched[2:3], block.dynamics_batch(tame[1:2]))
