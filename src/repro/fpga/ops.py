"""Bit-accurate fixed-point operators of the PL datapath.

These functions model the arithmetic performed by the Verilog ODEBlock
described in Section 3.1: 3x3 convolution and ReLU executed by multiply-add
units, and batch normalisation executed by multiply-add, division and
square-root units, all in 32-bit Q20 fixed point.  They operate on
:class:`~repro.fixedpoint.fxarray.FxArray` data, either a single image
(``(C, H, W)``, the board's one-image-at-a-time prediction flow) or a batch
(``(N, C, H, W)``).  A batch is **bit-identical** to N single-image calls:
every integer operation is exact and the batch-normalisation statistics are
reduced per image, never across the batch (enforced by
``tests/fpga/test_batched_odeblock.py``).

The integer arithmetic follows the hardware conventions: products are
computed at double width and renormalised by an arithmetic right shift,
accumulation happens in a wide accumulator, and the variance/σ path uses the
integer divide and floor square-root units from
:mod:`repro.fixedpoint.arithmetic`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..fixedpoint import FxArray, QFormat, Q20
from ..fixedpoint import arithmetic as fx
from ..nn.im2col import conv_output_size, im2col
from .gemm import PlannedGemm, _magnitude

__all__ = ["hw_conv2d", "hw_batch_norm", "hw_relu", "hw_residual_add", "DEFAULT_ROW_CHUNK"]

#: im2col rows fed to one GEMM call: bounds the peak size of the expanded
#: KH*KW*C patch matrix (at 16,384 rows the widest offloadable block,
#: layer3_2 with K = 577, peaks at ~75 MB of float64) independently of the
#: batch size N.
DEFAULT_ROW_CHUNK = 16384


def hw_conv2d(
    x: FxArray,
    weight: FxArray,
    stride: int = 1,
    padding: int = 1,
) -> FxArray:
    """Fixed-point 3x3 convolution of a single image or a batch.

    Lowered to channel-last im2col (columns ordered ``(KH, KW, C)``) + the
    exact split-limb GEMM of :mod:`repro.fpga.gemm`: the kernel, reordered
    to match, is decomposed once per call (planned from the operands'
    actual magnitudes), image chunks of at most :data:`DEFAULT_ROW_CHUNK`
    im2col rows stream through one BLAS call each, and the recombined int64
    accumulator goes through the same ``>> fraction_bits`` renormalisation
    and clip as a MAC unit with a wide accumulator register.  Bit-identical
    to the plain int64 matmul lowering for every input — including
    deliberately wrapping ones — and to per-image calls.

    Parameters
    ----------
    x:
        Input feature map of shape ``(C_in, H, W)`` or a batch
        ``(N, C_in, H, W)``.
    weight:
        Kernel of shape ``(C_out, C_in, KH, KW)``.
    """

    if x.ndim not in (3, 4):
        raise ValueError("hw_conv2d expects a (C, H, W) image or an (N, C, H, W) batch")
    if x.fmt != weight.fmt:
        raise ValueError("input and weight formats must match")
    fmt = x.fmt
    batched = x.ndim == 4
    raw = x.raw if batched else x.raw[None, ...]
    n, c_in, h, w = raw.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"channel mismatch: {c_in} vs {c_in_w}")

    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    rows_per_image = out_h * out_w
    k = c_in * kh * kw

    # Plan the exact GEMM from actual magnitudes: weights are decomposed
    # once; every image chunk then runs as a single stacked-limb BLAS call.
    # The kernel is reordered to im2col's channel-last (KH, KW, C) columns;
    # the GEMM is exact, so the reduction order cannot change an integer.
    w_mat = np.ascontiguousarray(weight.raw.transpose(0, 2, 3, 1).reshape(c_out, k).T)
    gemm = PlannedGemm(w_mat, a_max=_magnitude(raw))

    images_per_chunk = min(n, max(1, DEFAULT_ROW_CHUNK // rows_per_image))

    out_mat = np.empty((n * rows_per_image, c_out), dtype=np.int64)
    cols_buf = np.empty((images_per_chunk * rows_per_image, k), dtype=gemm.a_dtype)
    for start in range(0, n, images_per_chunk):
        stop = min(start + images_per_chunk, n)
        chunk_rows = (stop - start) * rows_per_image
        # im2col gathers straight into the GEMM's operand dtype: the
        # expanded patch matrix is materialised once, in one buffer reused
        # across chunks (zero padding is exact in fixed point).
        cols = im2col(
            raw[start:stop], kh, kw, stride, padding, out=cols_buf[:chunk_rows]
        )
        acc = gemm(cols)
        # Wide accumulation followed by a single renormalisation, matching a
        # MAC unit with a wide accumulator register.  Integer arithmetic is
        # exact, so neither batching nor chunking changes any image's result.
        renorm = acc >> fmt.fraction_bits
        np.clip(renorm, fmt.min_int, fmt.max_int, out=renorm)
        out_mat[start * rows_per_image : stop * rows_per_image] = renorm

    out = out_mat.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)
    return FxArray(out if batched else out[0], fmt)


def hw_batch_norm(
    x: FxArray,
    gamma: FxArray,
    beta: FxArray,
    running_mean: Optional[FxArray] = None,
    running_var: Optional[FxArray] = None,
    eps: float = 1e-5,
    dynamic_stats: bool = True,
) -> FxArray:
    """Fixed-point batch normalisation of a single image or a batch.

    The paper's hardware computes the mean, variance and standard deviation
    on the fly with multiply-add, divide and square-root units
    (``dynamic_stats=True``, the default).  Alternatively the trained running
    statistics can be applied (``dynamic_stats=False``), which is the
    standard inference-time behaviour of software BN.

    A batched input ``(N, C, H, W)`` reduces the statistics **per image**
    (the board normalises one prediction at a time), so the result is
    bit-identical to N single-image calls.
    """

    if x.ndim not in (3, 4):
        raise ValueError("hw_batch_norm expects a (C, H, W) image or an (N, C, H, W) batch")
    fmt = x.fmt
    batched = x.ndim == 4
    raw = x.raw if batched else x.raw[None, ...]
    n, c = raw.shape[:2]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ValueError("gamma/beta must have shape (C,)")

    eps_fx = fmt.to_fixed(eps)

    if dynamic_stats:
        # One centred tensor feeds both the variance and the normalisation.
        flat = raw.reshape(n, c, -1)
        mean = fx.fx_mean(flat, fmt, axis=2, keepdims=True)
        centered_flat = fx.fx_sub(flat, mean, fmt)
        var = fx.fx_mean(fx.fx_mul(centered_flat, centered_flat, fmt), fmt, axis=2)
        centered = centered_flat.reshape(raw.shape)
    else:
        if running_mean is None or running_var is None:
            raise ValueError("running statistics required when dynamic_stats=False")
        mean = np.broadcast_to(running_mean.raw, (n, c))
        var = np.broadcast_to(running_var.raw, (n, c))
        centered = fx.fx_sub(raw, mean.reshape(n, c, 1, 1), fmt)

    std = fx.fx_sqrt(fx.fx_add(var, eps_fx, fmt), fmt)
    # A hardware divider cannot divide by zero; clamp σ to one LSB (relevant
    # only for very narrow word lengths where small variances quantise to 0).
    std = np.maximum(std, 1)

    normalized = fx.fx_div(centered, std.reshape(n, c, 1, 1), fmt)
    scaled = fx.fx_mul(normalized, gamma.raw.reshape(1, c, 1, 1), fmt)
    shifted = fx.fx_add(scaled, beta.raw.reshape(1, c, 1, 1), fmt)
    return FxArray(shifted if batched else shifted[0], fmt)


def hw_relu(x: FxArray) -> FxArray:
    """Fixed-point ReLU."""

    return x.relu()


def hw_residual_add(x: FxArray, fx_out: FxArray, step_size: float = 1.0) -> FxArray:
    """Euler update ``z + h * f(z)`` in fixed point.

    The multiplication by the step size ``h`` is exact when ``h`` is 1 (the
    paper's configuration, one building block per step); other step sizes are
    quantised to the array's format first.
    """

    if x.fmt != fx_out.fmt:
        raise ValueError("operand formats must match")
    fmt = x.fmt
    if step_size == 1.0:
        scaled = fx_out.raw
    else:
        h_fx = fmt.to_fixed(step_size)
        scaled = fx.fx_mul(fx_out.raw, h_fx, fmt)
    return FxArray(fx.fx_add(x.raw, scaled, fmt), fmt)
