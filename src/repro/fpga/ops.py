"""Bit-accurate fixed-point operators of the PL datapath.

These functions model the arithmetic performed by the Verilog ODEBlock
described in Section 3.1: 3x3 convolution and ReLU executed by multiply-add
units, and batch normalisation executed by multiply-add, division and
square-root units, all in 32-bit Q20 fixed point.  They operate on
:class:`~repro.fixedpoint.fxarray.FxArray` batches of shape ``(N, C, H, W)``;
the board's one-image-at-a-time prediction flow is a batch of one.  A batch
is **bit-identical** to N batches of one: every integer operation is exact
and the batch-normalisation statistics are reduced per image, never across
the batch (enforced by ``tests/fpga/test_batched_odeblock.py``).

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
from ..nn.functional import BN_EPS
from ..nn.im2col import conv_output_size, im2col
from .gemm import PlannedGemm, _magnitude

__all__ = ["hw_conv2d", "hw_batch_norm", "hw_relu", "hw_residual_add"]


def hw_conv2d(x: FxArray, weight: FxArray) -> FxArray:
    """Fixed-point 3x3 convolution (stride 1, zero padding 1) of a batch.

    Lowered to channel-last im2col (columns ordered ``(KH, KW, C)``) + the
    exact split-limb GEMM of :mod:`repro.fpga.gemm`: the kernel, reordered
    to match, is decomposed once per call (planned from the operands'
    actual magnitudes), the whole patch matrix runs through one BLAS call,
    and the recombined int64 accumulator goes through the same
    ``>> fraction_bits`` renormalisation and clip as a MAC unit with a wide
    accumulator register.  Bit-identical to the plain int64 matmul lowering
    for every input — including deliberately wrapping ones — and to
    batches of one.  The patch matrix grows with the batch: the forward
    pass (:class:`~repro.fpga.odeblock_hw.HardwareODEBlock`) bounds it by
    calling this on one image group at a time.

    Parameters
    ----------
    x:
        Input feature maps of shape ``(N, C_in, H, W)``.
    weight:
        Kernel of shape ``(C_out, C_in, KH, KW)``.
    """

    if x.ndim != 4:
        raise ValueError("hw_conv2d expects an (N, C, H, W) batch")
    if x.fmt != weight.fmt:
        raise ValueError("input and weight formats must match")
    fmt = x.fmt
    raw = x.raw
    n, c_in, h, w = raw.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"channel mismatch: {c_in} vs {c_in_w}")

    out_h = conv_output_size(h, kh, 1, 1)
    out_w = conv_output_size(w, kw, 1, 1)
    rows_per_image = out_h * out_w
    k = c_in * kh * kw

    # Plan the exact GEMM from actual magnitudes: weights are decomposed
    # once and the patch matrix runs as a single stacked-limb BLAS call.
    # The kernel is reordered to im2col's channel-last (KH, KW, C) columns;
    # the GEMM is exact, so the reduction order cannot change an integer.
    w_mat = np.ascontiguousarray(weight.raw.transpose(0, 2, 3, 1).reshape(c_out, k).T)
    gemm = PlannedGemm(w_mat, a_max=_magnitude(raw))

    # im2col gathers straight into the GEMM's operand dtype, so the expanded
    # patch matrix is materialised once (zero padding is exact in fixed
    # point).  Wide accumulation is followed by a single renormalisation,
    # matching a MAC unit with a wide accumulator register.
    cols = im2col(raw, kh, kw, 1, 1, out=np.empty((n * rows_per_image, k), dtype=gemm.a_dtype))
    out_mat = gemm(cols)
    out_mat >>= fmt.fraction_bits
    np.clip(out_mat, fmt.min_int, fmt.max_int, out=out_mat)

    return FxArray(out_mat.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2), fmt)


def hw_batch_norm(
    x: FxArray,
    gamma: FxArray,
    beta: FxArray,
    running_mean: Optional[FxArray] = None,
    running_var: Optional[FxArray] = None,
    dynamic_stats: bool = True,
) -> FxArray:
    """Fixed-point batch normalisation of an ``(N, C, H, W)`` batch.

    The paper's hardware computes the mean, variance and standard deviation
    on the fly with multiply-add, divide and square-root units
    (``dynamic_stats=True``, the default).  Alternatively the trained running
    statistics can be applied (``dynamic_stats=False``), which is the
    standard inference-time behaviour of software BN.

    The statistics reduce **per image** (the board normalises one
    prediction at a time), so the result is bit-identical to N batches of
    one.
    """

    if x.ndim != 4:
        raise ValueError("hw_batch_norm expects an (N, C, H, W) batch")
    fmt = x.fmt
    raw = x.raw
    n, c = raw.shape[:2]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ValueError("gamma/beta must have shape (C,)")

    eps_fx = fmt.to_fixed(BN_EPS)

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
    return FxArray(shifted, fmt)


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
