"""Integer fixed-point arithmetic primitives.

These model the datapath operators instantiated on the PL part of the FPGA:
multiply-add units (convolution and ReLU steps), and the divide and
square-root units used by the batch-normalisation step to compute the mean,
variance and standard deviation (Section 3.1).  All functions operate on the
*integer* representation (as :func:`QFormat.to_fixed` produces) and return
integer representations, so rounding/overflow behaviour matches a hardware
implementation rather than floating point.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .qformat import OverflowMode, QFormat

__all__ = [
    "fx_add",
    "fx_sub",
    "fx_mul",
    "fx_mac",
    "fx_div",
    "fx_sqrt",
    "fx_relu",
    "fx_mean",
    "fx_var",
]

IntArray = Union[int, np.ndarray]


def _apply_overflow(values: np.ndarray, fmt: QFormat, mode: str) -> np.ndarray:
    if mode == OverflowMode.SATURATE:
        return np.clip(values, fmt.min_int, fmt.max_int)
    if mode == OverflowMode.WRAP:
        span = 1 << fmt.word_length
        return np.mod(values - fmt.min_int, span) + fmt.min_int
    raise ValueError(f"unknown overflow mode '{mode}'")


def fx_add(a: IntArray, b: IntArray, fmt: QFormat, mode: str = OverflowMode.SATURATE) -> np.ndarray:
    """Fixed-point addition."""

    result = np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)
    return _apply_overflow(result, fmt, mode)


def fx_sub(a: IntArray, b: IntArray, fmt: QFormat, mode: str = OverflowMode.SATURATE) -> np.ndarray:
    """Fixed-point subtraction."""

    result = np.asarray(a, dtype=np.int64) - np.asarray(b, dtype=np.int64)
    return _apply_overflow(result, fmt, mode)


def fx_mul(a: IntArray, b: IntArray, fmt: QFormat, mode: str = OverflowMode.SATURATE) -> np.ndarray:
    """Fixed-point multiplication with truncation of the extra fraction bits.

    A hardware multiplier produces a double-width product; shifting right by
    ``fraction_bits`` renormalises it.  An arithmetic right shift truncates
    toward negative infinity, which is what a simple DSP48-based datapath
    does.
    """

    product = np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)
    result = product >> fmt.fraction_bits
    return _apply_overflow(result, fmt, mode)


def fx_mac(
    acc: IntArray,
    a: IntArray,
    b: IntArray,
    fmt: QFormat,
    mode: str = OverflowMode.SATURATE,
) -> np.ndarray:
    """Multiply-accumulate: ``acc + a*b`` (one clock of a MAC unit)."""

    return fx_add(acc, fx_mul(a, b, fmt, mode), fmt, mode)


def fx_div(a: IntArray, b: IntArray, fmt: QFormat, mode: str = OverflowMode.SATURATE) -> np.ndarray:
    """Fixed-point division (used to normalise by the standard deviation)."""

    a64 = np.asarray(a, dtype=np.int64)
    b64 = np.asarray(b, dtype=np.int64)
    if np.any(b64 == 0):
        raise ZeroDivisionError("fixed-point division by zero")
    numerator = a64 << fmt.fraction_bits
    # Truncating integer division toward zero, like a restoring divider.
    result = (np.sign(numerator) * np.sign(b64)) * (np.abs(numerator) // np.abs(b64))
    return _apply_overflow(result, fmt, mode)


def fx_sqrt(a: IntArray, fmt: QFormat) -> np.ndarray:
    """Fixed-point square root: ``floor(sqrt(a << fraction_bits))``, saturated.

    Models the square-root unit of the batch-normalisation datapath.  The
    input must be non-negative (it is a variance plus epsilon).  Since
    ``sqrt(v / S) * S == sqrt(v * S)``, the result is the floor integer square
    root of the radicand ``a << fraction_bits`` — what the RTL ``isqrt64``
    computes — and satisfies ``|sqrt_fx(x) - sqrt(x)| <= resolution`` for
    representable x.

    A radicand below 2**52 is exact in float64 and IEEE ``sqrt`` is correctly
    rounded, so one array ``floor(sqrt(...))`` gives the exact floor for all
    of them at once.  Wider radicands (word lengths past ~52 bits) take the
    exact :func:`math.isqrt` per element.  Scalars return a 0-d array.
    """

    a64 = np.asarray(a, dtype=np.int64)
    if np.any(a64 < 0):
        raise ValueError("fx_sqrt requires non-negative inputs")
    shift = fmt.fraction_bits
    flat = a64.reshape(-1)
    # a << shift < 2**52 exactly when a <= (2**52 - 1) >> shift.
    narrow_max = ((1 << 52) - 1) >> shift
    radicand = np.minimum(flat, narrow_max) << shift
    result = np.floor(np.sqrt(radicand.astype(np.float64))).astype(np.int64)
    wide = flat > narrow_max
    if wide.any():
        result[wide] = [math.isqrt(int(v) << shift) for v in flat[wide]]
    return _apply_overflow(result, fmt, OverflowMode.SATURATE).reshape(a64.shape)


def fx_relu(a: IntArray, fmt: QFormat) -> np.ndarray:
    """Fixed-point ReLU (clamp negatives to zero)."""

    return np.maximum(np.asarray(a, dtype=np.int64), 0)


def fx_mean(a: np.ndarray, fmt: QFormat, axis=None, keepdims: bool = False) -> np.ndarray:
    """Fixed-point mean along ``axis`` (sum then divide, as the BN unit does).

    The accumulator is wider than the word length (hardware uses a wide
    accumulator register); only the final quotient is renormalised to the
    target format.  ``axis`` may be an int or a tuple of ints (the batched
    datapath reduces each image's spatial axes at once); each reduced group
    sums exactly the elements a per-image reduction would, so batched and
    per-image results are bit-identical.
    """

    a64 = np.asarray(a, dtype=np.int64)
    if axis is None:
        count = a64.size
    else:
        count = int(np.prod([a64.shape[ax] for ax in np.atleast_1d(axis)]))
    total = a64.sum(axis=axis, dtype=np.int64, keepdims=keepdims)
    # total and the result are both in fixed representation, so a plain
    # truncating integer division by the (unscaled) element count suffices.
    result = (np.sign(total)) * (np.abs(total) // count)
    return _apply_overflow(result, fmt, OverflowMode.SATURATE)


def fx_var(a: np.ndarray, fmt: QFormat, axis=None, keepdims: bool = False) -> np.ndarray:
    """Fixed-point (biased) variance along ``axis`` (int or tuple of ints)."""

    mean = fx_mean(a, fmt, axis=axis, keepdims=axis is not None)
    centered = fx_sub(a, mean, fmt)
    squared = fx_mul(centered, centered, fmt)
    return fx_mean(squared, fmt, axis=axis, keepdims=keepdims)
