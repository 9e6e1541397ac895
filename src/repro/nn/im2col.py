"""im2col / col2im utilities for vectorised convolution.

Convolutions in :mod:`repro.nn.functional` are lowered to matrix
multiplication through the classical im2col transformation so that the heavy
lifting is done by BLAS (``@``) rather than Python loops, following the
"vectorise your loops" guidance for scientific Python code.

Layout convention: all feature maps are NCHW (batch, channel, height, width),
matching the paper's description of 32x32/16x16/8x8 feature maps with 16/32/64
channels.  The column matrix is channel-last: one row per output pixel,
columns ordered ``(KH, KW, C)``, so a ``(C_out, C, KH, KW)`` kernel pairs with
it as ``weight.transpose(0, 2, 3, 1).reshape(C_out, -1)``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["conv_output_size", "im2col", "col2im"]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""

    return (size + 2 * padding - kernel) // stride + 1


def im2col(
    x: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    padding: int = 0,
    *,
    out: np.ndarray = None,
) -> np.ndarray:
    """Rearrange image patches into channel-last columns.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    kernel_h, kernel_w:
        Kernel spatial size.
    stride, padding:
        Convolution stride and symmetric zero padding.
    out:
        Preallocated ``(N * out_h * out_w, kernel_h * kernel_w * C)``
        C-contiguous destination.  Its dtype is the column matrix's
        (default: ``x.dtype``); the cast happens while ``x`` is copied into
        the small padded channel-last buffer, so e.g. the int64 fixed-point
        path materialises float64 GEMM input directly without an int64 copy
        of the expanded matrix.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(N * out_h * out_w, kernel_h * kernel_w * C)``;
        row ``(n, i, j)`` holds the receptive field of output pixel
        ``(i, j)`` of image ``n``, columns ordered ``(KH, KW, C)``.
    """

    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    rows = n * out_h * out_w
    cols_per_row = kernel_h * kernel_w * c

    if out is None:
        out = np.empty((rows, cols_per_row), dtype=x.dtype)
    else:
        if out.shape != (rows, cols_per_row):
            raise ValueError(
                f"out has shape {out.shape}, expected {(rows, cols_per_row)}"
            )
        if not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")

    # One cast+transpose into a zero-padded NHWC buffer, 1/(KH*KW) the size
    # of the column matrix (zero padding is exact in fixed point too).
    # ``copyto`` keeps NumPy's same-kind casting rule, so e.g. float input
    # into an integer ``out`` still raises instead of truncating.
    padded = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=out.dtype)
    interior = padded[:, padding : padding + h, padding : padding + w]
    np.copyto(interior, x.transpose(0, 2, 3, 1))

    # Strided view (N, out_h, out_w, KH, KW, C) without copying: for a fixed
    # kernel row the KW*C elements are contiguous, so the gather below
    # copies runs of KW*C elements instead of KW.
    sn, sh, sw, sc = padded.strides
    patches = np.lib.stride_tricks.as_strided(
        padded,
        shape=(n, out_h, out_w, kernel_h, kernel_w, c),
        strides=(sn, sh * stride, sw * stride, sh, sw, sc),
    )
    np.copyto(out.reshape(n, out_h, out_w, kernel_h, kernel_w, c), patches)
    return out


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Inverse of :func:`im2col` (scatter-add of column gradients).

    Parameters
    ----------
    cols:
        Array of shape ``(N * out_h * out_w, kernel_h * kernel_w * C)``,
        columns ordered ``(KH, KW, C)`` as :func:`im2col` writes them.
    input_shape:
        The original ``(N, C, H, W)`` shape.

    Returns
    -------
    numpy.ndarray
        Gradient image of shape ``input_shape``.
    """

    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)

    cols = cols.reshape(n, out_h, out_w, kernel_h, kernel_w, c)
    padded = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=cols.dtype)

    # Scatter-add each kernel offset back into the padded NHWC image.  The
    # two small loops run kernel_h*kernel_w (= 9) times; the body is
    # vectorised.
    for i in range(kernel_h):
        i_max = i + stride * out_h
        for j in range(kernel_w):
            j_max = j + stride * out_w
            padded[:, i:i_max:stride, j:j_max:stride] += cols[:, :, :, i, j]

    return padded[:, padding : padding + h, padding : padding + w].transpose(0, 3, 1, 2)
