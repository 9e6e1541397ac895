"""Property-based round-trip coverage of the weight-image format.

Closes the coverage gap: the round trip must hold over the full
``QFormat`` x ``time_concat`` x geometry space — including non-default word
lengths — and malformed headers must raise *named* errors that state the
expected values.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from weight_image import import_block_weights

from repro.fixedpoint import QFormat
from repro.fpga import (
    WeightImageError,
    WeightImageHeader,
    WeightImageMagicError,
    WeightImageVersionError,
    export_block_weights,
)
from repro.fpga.odeblock_hw import BlockWeights


def _weights(rng, channels, kernel, time_concat, with_stats):
    in_ch = channels + (1 if time_concat else 0)
    shape = (channels, in_ch, kernel, kernel)
    stats = {}
    if with_stats:
        stats = dict(
            bn1_mean=rng.normal(0, 0.5, channels),
            bn1_var=np.abs(rng.normal(1, 0.2, channels)),
            bn2_mean=rng.normal(0, 0.5, channels),
            bn2_var=np.abs(rng.normal(1, 0.2, channels)),
        )
    return BlockWeights(
        conv1_weight=rng.normal(0, 0.5, shape),
        bn1_gamma=rng.normal(1, 0.2, channels),
        bn1_beta=rng.normal(0, 0.2, channels),
        conv2_weight=rng.normal(0, 0.5, shape),
        bn2_gamma=rng.normal(1, 0.2, channels),
        bn2_beta=rng.normal(0, 0.2, channels),
        **stats,
    )


#: Word lengths off the beaten path on purpose (the shipped ladder only
#: exercises 8..32).
qformats = st.tuples(
    st.sampled_from([4, 6, 8, 10, 12, 16, 18, 24, 32, 48, 64]),
    st.integers(min_value=1, max_value=6),
).map(lambda wl_fb: QFormat(wl_fb[0], min(wl_fb[1], wl_fb[0] - 2)))


@settings(max_examples=60, deadline=None)
@given(
    qformat=qformats,
    channels=st.integers(min_value=1, max_value=4),
    kernel=st.sampled_from([1, 3]),
    time_concat=st.booleans(),
    with_stats=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_round_trip_is_quantisation_exact(qformat, channels, kernel, time_concat, with_stats, seed):
    rng = np.random.default_rng(seed)
    weights = _weights(rng, channels, kernel, time_concat, with_stats)
    image = export_block_weights(weights, qformat)

    imported, header = import_block_weights(image)
    assert header.word_length == qformat.word_length
    assert header.fraction_bits == qformat.fraction_bits
    assert header.out_channels == channels
    assert header.kernel == kernel
    assert header.time_concat == time_concat

    # Importing gives the dequantised weights: exactly to_float(to_fixed(w)).
    for name in ("conv1_weight", "conv2_weight", "bn1_gamma", "bn1_beta",
                 "bn2_gamma", "bn2_beta"):
        original = getattr(weights, name)
        expected = qformat.to_float(qformat.to_fixed(original))
        np.testing.assert_array_equal(getattr(imported, name), expected, err_msg=name)

    # Second trip is a fixed point: export(import(image)) == image, byte for byte.
    assert export_block_weights(imported, qformat) == image


@settings(max_examples=20, deadline=None)
@given(qformat=qformats, seed=st.integers(min_value=0, max_value=2**16))
def test_missing_stats_default_to_identity(qformat, seed):
    rng = np.random.default_rng(seed)
    weights = _weights(rng, 2, 3, False, with_stats=False)
    imported, _ = import_block_weights(export_block_weights(weights, qformat))
    np.testing.assert_array_equal(imported.bn1_mean, np.zeros(2))
    np.testing.assert_array_equal(imported.bn1_var, qformat.to_float(qformat.to_fixed(np.ones(2))))


def _valid_image():
    rng = np.random.default_rng(0)
    return export_block_weights(_weights(rng, 2, 3, False, False), QFormat(16, 8))


def test_bad_magic_raises_named_error_listing_expected():
    image = bytearray(_valid_image())
    image[:4] = b"JUNK"
    with pytest.raises(WeightImageMagicError) as exc:
        import_block_weights(bytes(image))
    assert "0x4F444557" in str(exc.value)
    assert "ODEW" in str(exc.value)
    assert exc.value.expected == 0x4F444557


def test_bad_version_raises_named_error_listing_expected():
    image = bytearray(_valid_image())
    # Version is the u16 right after the u32 magic.
    struct.pack_into("<H", image, 4, 7)
    with pytest.raises(WeightImageVersionError) as exc:
        import_block_weights(bytes(image))
    assert "version 7" in str(exc.value)
    assert "expected 1" in str(exc.value)
    assert exc.value.expected == 1


def test_truncated_header_raises_weight_image_error():
    with pytest.raises(WeightImageError, match="truncated"):
        WeightImageHeader.unpack(b"\x57")


def test_named_errors_are_value_errors():
    # Callers that caught the old plain ValueError keep working.
    for exc in (WeightImageError, WeightImageMagicError, WeightImageVersionError):
        assert issubclass(exc, ValueError)
