"""Weight initialisation schemes.

The networks in the paper are standard CIFAR ResNets, so He (Kaiming) normal
initialisation for convolutions and uniform fan-in initialisation for the
fully-connected classifier are used, mirroring the usual PyTorch defaults.
All initialisers accept an explicit ``numpy.random.Generator`` so that the
experiments are reproducible.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "kaiming_normal",
    "uniform_fan_in",
    "zeros",
    "ones",
]


def _fan_in_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Compute fan-in / fan-out for dense or convolutional weight shapes."""

    if len(shape) == 2:  # (out, in)
        fan_out, fan_in = shape
    elif len(shape) == 4:  # (out_c, in_c, kh, kw)
        receptive = shape[2] * shape[3]
        fan_in = shape[1] * receptive
        fan_out = shape[0] * receptive
    else:
        raise ValueError(f"unsupported weight shape {shape}")
    return fan_in, fan_out


def kaiming_normal(shape, rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """He normal initialisation (gain for ReLU)."""

    rng = rng or np.random.default_rng()
    fan_in, _ = _fan_in_out(tuple(shape))
    std = math.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)


def uniform_fan_in(shape, rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """PyTorch-default uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) initialisation."""

    rng = rng or np.random.default_rng()
    fan_in, _ = _fan_in_out(tuple(shape))
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def zeros(shape) -> np.ndarray:
    """All-zero initialisation (bias / BN beta)."""

    return np.zeros(shape)


def ones(shape) -> np.ndarray:
    """All-one initialisation (BN gamma)."""

    return np.ones(shape)
