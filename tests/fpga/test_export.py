"""Tests for the deployment weight-image export/import."""

from __future__ import annotations

import numpy as np
import pytest
from weight_image import import_block_weights

from repro.fixedpoint import Q8, Q16, Q20
from repro.fpga import (
    BlockWeights,
    HardwareODEBlock,
    LAYER3_2,
    WeightImageHeader,
    export_block_weights,
)
from repro.fpga.geometry import BlockGeometry


@pytest.fixture
def small_geometry():
    return BlockGeometry(name="layer3_2", in_channels=8, out_channels=8, height=4, width=4)


@pytest.fixture
def weights(small_geometry, rng):
    return BlockWeights.random(small_geometry, rng, scale=0.1)


class TestHeader:
    def test_pack_unpack_roundtrip(self):
        header = WeightImageHeader(64, 64, 3, 32, 20, time_concat=True)
        assert WeightImageHeader.unpack(header.pack()) == header

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="expected 0x4F444557"):
            WeightImageHeader.unpack(b"\x00" * 32)


class TestRoundTrip:
    def test_q20_roundtrip_error_bounded_by_lsb(self, weights):
        image = export_block_weights(weights, Q20)
        restored, header = import_block_weights(image)
        assert header.word_length == 32 and header.fraction_bits == 20
        for name in ("conv1_weight", "conv2_weight", "bn1_gamma", "bn2_beta"):
            original = getattr(weights, name)
            recovered = getattr(restored, name)
            assert recovered.shape == original.shape
            assert np.max(np.abs(recovered - original)) <= Q20.resolution

    def test_missing_running_stats_default_to_identity(self, weights):
        assert weights.bn1_mean is None
        restored, _ = import_block_weights(export_block_weights(weights))
        np.testing.assert_allclose(restored.bn1_mean, 0.0)
        np.testing.assert_allclose(restored.bn1_var, 1.0)

    def test_time_concat_detected_from_shapes(self, small_geometry, rng):
        c = small_geometry.out_channels
        concat_weights = BlockWeights(
            conv1_weight=rng.normal(size=(c, c + 1, 3, 3)),
            bn1_gamma=np.ones(c),
            bn1_beta=np.zeros(c),
            conv2_weight=rng.normal(size=(c, c + 1, 3, 3)),
            bn2_gamma=np.ones(c),
            bn2_beta=np.zeros(c),
        )
        image = export_block_weights(concat_weights)
        restored, header = import_block_weights(image)
        assert header.time_concat is True
        assert restored.conv1_weight.shape == (c, c + 1, 3, 3)

    def test_narrow_format_smaller_image(self, weights):
        full = export_block_weights(weights, Q20)
        half = export_block_weights(weights, Q16)
        assert len(half) < len(full)

    def test_q8_roundtrip_error_bounded_by_q8_lsb(self, weights):
        restored, _ = import_block_weights(export_block_weights(weights, Q8))
        err = np.max(np.abs(restored.conv1_weight - weights.conv1_weight))
        assert err <= Q8.resolution

    def test_image_size_matches_layer3_2_weight_bytes(self, rng):
        """The full-size layer3_2 image is ~the BRAM weight footprint."""

        weights = BlockWeights.random(LAYER3_2, rng)
        image = export_block_weights(weights, Q20)
        expected_payload = (2 * 64 * 64 * 9 + 8 * 64) * 4  # convs + 8 BN vectors
        assert len(image) == expected_payload + 20  # + header


class TestIntegrationWithHardwareBlock:
    def test_exported_weights_reproduce_hardware_output(self, small_geometry, weights, rng):
        """Loading the exported image into a new HardwareODEBlock gives the
        same fixed-point output as the original weights."""

        original_hw = HardwareODEBlock(small_geometry, weights, n_units=4)
        restored, _ = import_block_weights(export_block_weights(weights, Q20))
        restored_hw = HardwareODEBlock(small_geometry, restored, n_units=4)
        z = rng.normal(0, 0.3, size=(8, 4, 4))
        np.testing.assert_allclose(original_hw.dynamics(z), restored_hw.dynamics(z), atol=1e-5)
