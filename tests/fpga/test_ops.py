"""Tests for the bit-accurate fixed-point hardware operators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fixedpoint import FxArray, Q20, QFormat
from repro.fixedpoint import arithmetic as fx
from repro.fpga.gemm import _magnitude, plan_gemm
from repro.fpga.ops import hw_batch_norm, hw_conv2d, hw_relu, hw_residual_add
from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.layers import Parameter


def _image(x: FxArray, i: int) -> FxArray:
    """Image ``i`` of a batched FxArray."""

    return FxArray(x.raw[i], x.fmt)


def _float_conv_single_image(x, w, stride=1, padding=1):
    out = F.conv2d(Tensor(x[None, ...]), Tensor(w), stride=stride, padding=padding)
    return out.data[0]


class TestHwConv2d:
    def test_matches_float_reference_within_quantization(self, rng):
        x = rng.normal(0, 0.5, size=(4, 6, 6))
        w = rng.normal(0, 0.2, size=(4, 4, 3, 3))
        hw_out = hw_conv2d(FxArray.from_float(x), FxArray.from_float(w)).to_float()
        ref = _float_conv_single_image(x, w)
        np.testing.assert_allclose(hw_out, ref, atol=1e-3)

    def test_batch_accepted_and_matches_per_image(self, rng):
        x = FxArray.from_float(rng.normal(size=(3, 2, 4, 4)))
        w = FxArray.from_float(rng.normal(size=(2, 2, 3, 3)))
        batched = hw_conv2d(x, w)
        assert batched.shape == (3, 2, 4, 4)
        for i in range(3):
            assert np.array_equal(batched.raw[i], hw_conv2d(_image(x, i), w).raw)

    def test_rejects_non_image_rank(self, rng):
        w = FxArray.from_float(rng.normal(size=(2, 2, 3, 3)))
        with pytest.raises(ValueError, match="batch"):
            hw_conv2d(FxArray.from_float(rng.normal(size=(4, 4))), w)

    def test_channel_mismatch(self, rng):
        x = FxArray.from_float(rng.normal(size=(3, 4, 4)))
        w = FxArray.from_float(rng.normal(size=(2, 2, 3, 3)))
        with pytest.raises(ValueError, match="channel mismatch"):
            hw_conv2d(x, w)

    def test_format_mismatch(self, rng):
        from repro.fixedpoint import Q16

        x = FxArray.from_float(rng.normal(size=(2, 4, 4)), Q20)
        w = FxArray.from_float(rng.normal(size=(2, 2, 3, 3)), Q16)
        with pytest.raises(ValueError, match="formats must match"):
            hw_conv2d(x, w)


#: Kernel sizes of the layout-free conv conformance tests.
CONV_KERNELS = [pytest.param(k, id=f"k{k}") for k in (1, 3)]


def _direct_hw_conv(conv_oracle, x: FxArray, w: FxArray) -> np.ndarray:
    """The MAC-unit semantics on a direct int64 conv (stride 1, padding 1):
    renormalise, then clip."""

    acc = conv_oracle(x.raw, w.raw, 1, 1) >> x.fmt.fraction_bits
    return np.clip(acc, x.fmt.min_int, x.fmt.max_int)


class TestHwConv2dConformance:
    """hw_conv2d against a direct convolution that never builds columns.

    These pin the datapath independently of im2col's column order.
    """

    @pytest.mark.parametrize("kernel", CONV_KERNELS)
    @pytest.mark.parametrize(
        "fmt,scale,time_concat",
        [
            pytest.param(Q20, 0.5, False, id="Q20"),
            pytest.param(QFormat(4, 2), 3.0, False, id="Q4.2-saturating"),
            pytest.param(Q20, 0.5, True, id="Q20-time-concat"),
        ],
    )
    def test_bit_identical_to_direct_conv(self, rng, conv_oracle, kernel, fmt, scale, time_concat):
        x = FxArray.from_float(rng.normal(0, scale, size=(3, 4, 7, 7)), fmt)
        if time_concat:
            # The constant integration-time plane HardwareODEBlock appends.
            t_plane = np.full((3, 1, 7, 7), int(fmt.to_fixed(0.25)), dtype=np.int64)
            x = FxArray(np.concatenate([x.raw, t_plane], axis=1), fmt)
        w = FxArray.from_float(rng.normal(0, 0.3, size=(5, x.shape[1], kernel, kernel)), fmt)
        got = hw_conv2d(x, w)
        assert np.array_equal(got.raw, _direct_hw_conv(conv_oracle, x, w))

    @pytest.mark.parametrize("kernel", CONV_KERNELS)
    def test_int64_fallback_wraps_like_direct_conv(self, rng, conv_oracle, kernel):
        # 62-bit operands: no limb split is exact, so the GEMM falls back to
        # the int64 matmul and the accumulator wraps modulo 2**64.
        fmt = QFormat(64, 32)
        x = FxArray(rng.integers(-(2**61), 2**61, size=(2, 3, 6, 6), dtype=np.int64), fmt)
        w = FxArray(rng.integers(-(2**61), 2**61, size=(4, 3, kernel, kernel), dtype=np.int64), fmt)
        assert plan_gemm(_magnitude(x.raw), _magnitude(w.raw), 3 * kernel * kernel).split == "int64"
        got = hw_conv2d(x, w)
        assert np.array_equal(got.raw, _direct_hw_conv(conv_oracle, x, w))


class TestHwBatchNorm:
    def test_dynamic_stats_normalise_per_channel(self, rng):
        x = rng.normal(3.0, 2.0, size=(4, 16, 16))
        out = hw_batch_norm(
            FxArray.from_float(x),
            FxArray.from_float(np.ones(4)),
            FxArray.from_float(np.zeros(4)),
            dynamic_stats=True,
        ).to_float()
        assert abs(out.mean()) < 0.05
        assert out.std() == pytest.approx(1.0, abs=0.1)

    def test_running_stats_affine(self, rng):
        x = rng.normal(size=(2, 4, 4))
        out = hw_batch_norm(
            FxArray.from_float(x),
            FxArray.from_float(np.full(2, 2.0)),
            FxArray.from_float(np.full(2, 0.5)),
            running_mean=FxArray.from_float(np.zeros(2)),
            running_var=FxArray.from_float(np.ones(2)),
            dynamic_stats=False,
        ).to_float()
        np.testing.assert_allclose(out, 2.0 * x + 0.5, atol=1e-2)

    def test_missing_running_stats_rejected(self, rng):
        x = FxArray.from_float(rng.normal(size=(2, 4, 4)))
        with pytest.raises(ValueError, match="running statistics"):
            hw_batch_norm(
                x,
                FxArray.from_float(np.ones(2)),
                FxArray.from_float(np.zeros(2)),
                dynamic_stats=False,
            )

    def test_matches_software_eval_batchnorm(self, rng):
        """Fixed-point BN with running stats tracks the float eval-mode BN."""

        x = rng.normal(size=(3, 8, 8))
        gamma, beta = rng.normal(1, 0.1, 3), rng.normal(0, 0.1, 3)
        mean, var = rng.normal(0, 0.2, 3), rng.uniform(0.5, 1.5, 3)
        hw = hw_batch_norm(
            FxArray.from_float(x),
            FxArray.from_float(gamma),
            FxArray.from_float(beta),
            running_mean=FxArray.from_float(mean),
            running_var=FxArray.from_float(var),
            dynamic_stats=False,
        ).to_float()
        sw = F.batch_norm2d(
            Tensor(x[None]), Parameter(gamma), Parameter(beta), mean.copy(), var.copy(), training=False
        ).data[0]
        np.testing.assert_allclose(hw, sw, atol=5e-3)


def legacy_dynamic_batch_norm(x: FxArray, gamma: FxArray, beta: FxArray, eps: float = 1e-5):
    """The original composition: fx_mean -> fx_var -> fx_sub -> fx_div -> fx_mul -> fx_add."""

    fmt = x.fmt
    raw = x.raw if x.ndim == 4 else x.raw[None, ...]
    n, c = raw.shape[:2]
    flat = raw.reshape(n, c, -1)
    mean = fx.fx_mean(flat, fmt, axis=2)
    var = fx.fx_var(flat, fmt, axis=2)
    std = np.maximum(fx.fx_sqrt(fx.fx_add(var, fmt.to_fixed(eps), fmt), fmt), 1)
    centered = fx.fx_sub(raw, mean.reshape(n, c, 1, 1), fmt)
    normalized = fx.fx_div(centered, std.reshape(n, c, 1, 1), fmt)
    scaled = fx.fx_mul(normalized, gamma.raw.reshape(1, c, 1, 1), fmt)
    shifted = fx.fx_add(scaled, beta.raw.reshape(1, c, 1, 1), fmt)
    return shifted if x.ndim == 4 else shifted[0]


class TestHwBatchNormBitIdentity:
    """The single-pass statistics equal the legacy composition bit for bit."""

    @pytest.mark.parametrize(
        "fmt, scale",
        [(Q20, 2.0), (QFormat(16, 8), 4.0), (QFormat(6, 4), 3.0), (QFormat(4, 2), 3.0)],
        ids=["Q20", "Q8-16bit", "Q6.4-saturating", "Q4.2-saturating"],
    )
    @pytest.mark.parametrize("shape", [(5, 6, 6), (3, 5, 4, 4)], ids=["image", "batch"])
    def test_matches_legacy_composition(self, rng, fmt, scale, shape):
        x = FxArray.from_float(rng.normal(0.5, scale, size=shape), fmt)
        c = shape[-3]
        gamma = FxArray.from_float(rng.normal(1.0, 0.5, size=c), fmt)
        beta = FxArray.from_float(rng.normal(0.0, 0.5, size=c), fmt)
        out = hw_batch_norm(x, gamma, beta, dynamic_stats=True)
        expected = legacy_dynamic_batch_norm(x, gamma, beta)
        assert out.raw.dtype == np.int64
        np.testing.assert_array_equal(out.raw, expected)


class TestReluAndResidual:
    def test_relu(self, rng):
        x = rng.normal(size=(2, 4, 4))
        out = hw_relu(FxArray.from_float(x)).to_float()
        np.testing.assert_allclose(out, np.maximum(x, 0), atol=1e-6)

    def test_residual_add_step_one(self, rng):
        z = rng.normal(size=(2, 3, 3))
        f = rng.normal(size=(2, 3, 3))
        out = hw_residual_add(FxArray.from_float(z), FxArray.from_float(f), step_size=1.0)
        np.testing.assert_allclose(out.to_float(), z + f, atol=1e-5)

    def test_residual_add_fractional_step(self, rng):
        z = rng.normal(size=(2, 3, 3))
        f = rng.normal(size=(2, 3, 3))
        out = hw_residual_add(FxArray.from_float(z), FxArray.from_float(f), step_size=0.5)
        np.testing.assert_allclose(out.to_float(), z + 0.5 * f, atol=1e-4)

    def test_residual_format_mismatch(self, rng):
        from repro.fixedpoint import Q16

        with pytest.raises(ValueError):
            hw_residual_add(
                FxArray.from_float(rng.normal(size=(1, 2, 2)), Q20),
                FxArray.from_float(rng.normal(size=(1, 2, 2)), Q16),
            )
