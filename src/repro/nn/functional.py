"""Differentiable neural-network primitives used by ResNet/ODENet.

Every function here operates on :class:`repro.nn.tensor.Tensor` objects and
registers the corresponding backward closure, so networks built from these
primitives can be trained end to end (including through the ODE solver
unrolled in :mod:`repro.core.odeblock`).

The operations map one-to-one onto the five-step ODEBlock pipeline of the
paper: 3x3 convolution, batch normalisation, ReLU, 3x3 convolution, batch
normalisation.  Global average pooling, the fully-connected layer, softmax and
cross-entropy are needed by the pre/post-processing steps (conv1 / fc).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .im2col import col2im, conv_output_size, im2col
from .tensor import Tensor, as_tensor

__all__ = [
    "conv2d",
    "batch_norm2d",
    "linear",
    "global_avg_pool2d",
    "log_softmax",
    "cross_entropy",
]


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


def conv2d(x: Tensor, weight: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Bias-free 2-D convolution in NCHW layout.

    Parameters
    ----------
    x:
        Input tensor of shape ``(N, C_in, H, W)``.
    weight:
        Kernel tensor of shape ``(C_out, C_in, KH, KW)``.
    stride, padding:
        Stride and symmetric zero padding (the paper uses 3x3 kernels with
        stride 1 or 2 and padding 1).
    """

    x = as_tensor(x)
    weight = as_tensor(weight)
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(
            f"conv2d channel mismatch: input has {c_in}, weight expects {c_in_w}"
        )

    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)

    # Channel-last columns: the kernel is reordered to (C_out, kh, kw, C_in)
    # so its flattened rows line up with im2col's (kh, kw, C_in) columns.
    cols = im2col(x.data, kh, kw, stride, padding)  # (N*oh*ow, kh*kw*C_in)
    w_mat = weight.data.transpose(0, 2, 3, 1).reshape(c_out, -1)  # (C_out, kh*kw*C_in)

    out = cols @ w_mat.T  # (N*oh*ow, C_out)
    out = out.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)

    def backward(grad: np.ndarray) -> None:
        # grad: (N, C_out, out_h, out_w)
        grad_mat = grad.transpose(0, 2, 3, 1).reshape(-1, c_out)  # (N*oh*ow, C_out)
        if weight.requires_grad:
            gw = grad_mat.T @ cols  # (C_out, kh*kw*C_in)
            weight._accumulate(gw.reshape(c_out, kh, kw, c_in).transpose(0, 3, 1, 2))
        if x.requires_grad:
            gcols = grad_mat @ w_mat  # (N*oh*ow, kh*kw*C_in)
            gx = col2im(gcols, (n, c_in, h, w), kh, kw, stride, padding)
            x._accumulate(gx)

    return Tensor._make(out, (x, weight), backward)


# ---------------------------------------------------------------------------
# Batch normalisation
# ---------------------------------------------------------------------------

#: Weight of the newest batch in the running-statistics moving average.
BN_MOMENTUM = 0.1

#: Added to the variance before the square root, by this software BN and
#: by the PL datapath's (:func:`repro.fpga.ops.hw_batch_norm`, its RTL and
#: the accuracy sweep's float reference) alike.
BN_EPS = 1e-5


def batch_norm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
) -> Tensor:
    """Per-channel batch normalisation over an NCHW tensor.

    In training mode the batch statistics are used and ``running_mean`` /
    ``running_var`` are updated in place (exponential moving average with
    momentum :data:`BN_MOMENTUM`).  In evaluation mode the running
    statistics are used, which matches what the FPGA implementation stores
    in BRAM.
    """

    x = as_tensor(x)
    n, c, h, w = x.shape
    axes = (0, 2, 3)
    count = n * h * w

    if training:
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean
        # Unbiased variance for the running estimate (torch convention).
        unbiased = var * count / max(count - 1, 1)
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * unbiased
    else:
        mean = running_mean
        var = running_var

    mean_r = mean.reshape(1, c, 1, 1)
    var_r = var.reshape(1, c, 1, 1)
    inv_std = 1.0 / np.sqrt(var_r + BN_EPS)
    x_hat = (x.data - mean_r) * inv_std
    out = gamma.data.reshape(1, c, 1, 1) * x_hat + beta.data.reshape(1, c, 1, 1)

    def backward(grad: np.ndarray) -> None:
        g = gamma.data.reshape(1, c, 1, 1)
        if gamma.requires_grad:
            gamma._accumulate((grad * x_hat).sum(axis=axes))
        if beta.requires_grad:
            beta._accumulate(grad.sum(axis=axes))
        if x.requires_grad:
            if training:
                # Full batch-norm backward through the batch statistics.
                dxhat = grad * g
                dvar = (dxhat * (x.data - mean_r) * -0.5 * inv_std ** 3).sum(
                    axis=axes, keepdims=True
                )
                dmean = (dxhat * -inv_std).sum(axis=axes, keepdims=True) + dvar * (
                    -2.0 * (x.data - mean_r)
                ).mean(axis=axes, keepdims=True)
                gx = (
                    dxhat * inv_std
                    + dvar * 2.0 * (x.data - mean_r) / count
                    + dmean / count
                )
            else:
                gx = grad * g * inv_std
            x._accumulate(gx)

    return Tensor._make(out, (x, gamma, beta), backward)


# ---------------------------------------------------------------------------
# Activations and simple layers
# ---------------------------------------------------------------------------


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine transform ``x @ weight.T + bias`` (torch.nn.Linear semantics)."""

    x = as_tensor(x)
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Global average pooling producing an ``(N, C)`` tensor (paper's fc step)."""

    x = as_tensor(x)
    return x.mean(axis=(2, 3))


# ---------------------------------------------------------------------------
# Classification losses
# ---------------------------------------------------------------------------


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax."""

    x = as_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, classes) and integer targets."""

    logits = as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    n = logits.shape[0]
    logp = log_softmax(logits, axis=1)
    picked = logp[np.arange(n), targets]
    return -picked.mean()
