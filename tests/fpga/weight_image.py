"""Reader of the deployment weight image: the inverse the round-trip tests need.

``repro.fpga.export.export_block_weights`` writes the image and the RTL
emitter parses only its header; :func:`import_block_weights` reads the whole
image back into float weights, so ``tests/fpga/test_export*.py`` can show
the format is lossless up to the Q-format quantisation.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.fixedpoint import QFormat
from repro.fpga.export import WeightImageHeader, _dtype_for
from repro.fpga.odeblock_hw import BlockWeights


def import_block_weights(image: bytes) -> Tuple[BlockWeights, WeightImageHeader]:
    """Parse a weight image back into float weights (dequantised)."""

    header = WeightImageHeader.unpack(image)
    fmt = QFormat(header.word_length, header.fraction_bits)
    dtype = _dtype_for(fmt)
    conv_in = header.in_channels + (1 if header.time_concat else 0)
    conv_shape = (header.out_channels, conv_in, header.kernel, header.kernel)
    conv_count = int(np.prod(conv_shape))
    c = header.out_channels

    offset = header.size
    itemsize = dtype.itemsize

    def take(count: int, shape) -> np.ndarray:
        nonlocal offset
        raw = np.frombuffer(image, dtype=dtype, count=count, offset=offset)
        offset += count * itemsize
        return fmt.to_float(raw.astype(np.int64)).reshape(shape)

    conv1 = take(conv_count, conv_shape)
    conv2 = take(conv_count, conv_shape)
    bn1_gamma = take(c, (c,))
    bn1_beta = take(c, (c,))
    bn1_mean = take(c, (c,))
    bn1_var = take(c, (c,))
    bn2_gamma = take(c, (c,))
    bn2_beta = take(c, (c,))
    bn2_mean = take(c, (c,))
    bn2_var = take(c, (c,))

    weights = BlockWeights(
        conv1_weight=conv1,
        bn1_gamma=bn1_gamma,
        bn1_beta=bn1_beta,
        conv2_weight=conv2,
        bn2_gamma=bn2_gamma,
        bn2_beta=bn2_beta,
        bn1_mean=bn1_mean,
        bn1_var=bn1_var,
        bn2_mean=bn2_mean,
        bn2_var=bn2_var,
    )
    return weights, header
