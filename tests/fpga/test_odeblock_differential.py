"""Differential test: HardwareODEBlock vs the float repro.nn reference.

Runs the bit-accurate fixed-point datapath against the floating-point
implementation of the same mathematics (``repro.nn.functional``) on random
inputs and asserts the deviation stays within the analytic bounds of
:mod:`repro.fixedpoint.errors`:

* per stage (conv, batch-norm), against the tight single-stage bounds;
* end to end, against the composed :func:`odeblock_error_bound` (worst-case
  interval propagation — rigorous, conservative);
* absolutely, for the paper's Q20 format (the datapath tracks float to a few
  1e-5, far below anything that would perturb a prediction).

The bounds are parameterised by magnitudes measured from the float reference
run (max weights/activations, per-channel sigma floors), so the test is
exact about what it claims.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fixedpoint import FxArray, Q16, Q20, QFormat
from repro.fixedpoint.errors import (
    batch_norm_error_bound,
    conv_error_bound,
    odeblock_error_bound,
)
from repro.fpga import BlockWeights, HardwareODEBlock
from repro.fpga.geometry import BlockGeometry, LAYER3_2
from repro.fpga.ops import hw_batch_norm, hw_conv2d
from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.layers import Parameter

BN_EPS = 1e-5


def small_geometry() -> BlockGeometry:
    return BlockGeometry(name="layer3_2", in_channels=8, out_channels=8, height=4, width=4)


def float_conv(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    return F.conv2d(Tensor(x[None]), Parameter(weight), padding=1).data[0]


def float_bn(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    channels = x.shape[0]
    return F.batch_norm2d(
        Tensor(x[None]), Parameter(gamma), Parameter(beta),
        np.zeros(channels), np.ones(channels), training=True,
    ).data[0]


def bn_magnitudes(x: np.ndarray) -> dict:
    """Per-channel |x - mean| amplitudes and sigma floors of the float input."""

    mean = x.mean(axis=(1, 2))
    var = x.var(axis=(1, 2))
    return {
        "centered_max": np.abs(x - mean[:, None, None]).max(axis=(1, 2)),
        "sigma_min": np.sqrt(var + BN_EPS),
    }


def float_reference_stages(weights: BlockWeights, z: np.ndarray) -> dict:
    """The float pipeline, stage by stage, with the magnitudes the bound needs."""

    a1 = float_conv(z, weights.conv1_weight)
    bn1 = float_bn(a1, weights.bn1_gamma, weights.bn1_beta)
    hidden = np.maximum(bn1, 0.0)
    a2 = float_conv(hidden, weights.conv2_weight)
    bn2 = float_bn(a2, weights.bn2_gamma, weights.bn2_beta)
    return {
        "conv1": a1, "bn1": bn1, "hidden": hidden, "conv2": a2, "output": bn2,
        "bn1_mag": bn_magnitudes(a1), "bn2_mag": bn_magnitudes(a2),
    }


def composed_bound(fmt: QFormat, weights: BlockWeights, z: np.ndarray, stages: dict):
    """Instantiate the end-to-end bound from the measured reference magnitudes."""

    k2 = weights.conv1_weight.shape[2] * weights.conv1_weight.shape[3]
    return odeblock_error_bound(
        fmt,
        fan_in1=weights.conv1_weight.shape[1] * k2,
        weight1_max=float(np.max(np.abs(weights.conv1_weight))),
        input_max=float(np.max(np.abs(z))),
        centered1_max=stages["bn1_mag"]["centered_max"],
        sigma1_min=stages["bn1_mag"]["sigma_min"],
        fan_in2=weights.conv2_weight.shape[1] * k2,
        weight2_max=float(np.max(np.abs(weights.conv2_weight))),
        hidden_max=float(np.max(np.abs(stages["hidden"]))),
        centered2_max=stages["bn2_mag"]["centered_max"],
        sigma2_min=stages["bn2_mag"]["sigma_min"],
    )


def make_case(seed: int):
    geometry = small_geometry()
    rng = np.random.default_rng(seed)
    weights = BlockWeights.random(geometry, rng, scale=0.1)
    z = rng.normal(0.0, 0.3, size=(8, 4, 4))
    return geometry, weights, z


class TestStageBounds:
    """Each pipeline stage, fed the quantised float reference input."""

    @pytest.mark.parametrize("fmt", [Q20, Q16], ids=["Q20", "Q16"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_conv_stage_within_bound(self, fmt, seed):
        _, weights, z = make_case(seed)
        reference = float_conv(z, weights.conv1_weight)
        fixed = hw_conv2d(FxArray.from_float(z, fmt), FxArray.from_float(weights.conv1_weight, fmt))
        error = float(np.max(np.abs(fixed.to_float() - reference)))
        bound = conv_error_bound(
            fmt,
            fan_in=weights.conv1_weight.shape[1] * 9,
            weight_max=float(np.max(np.abs(weights.conv1_weight))),
            input_max=float(np.max(np.abs(z))),
            input_error=fmt.resolution / 2.0,
        )
        assert error <= bound
        if fmt is Q20:
            assert bound < 1e-3  # the bound itself is tight, not vacuous

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_norm_stage_within_bound(self, seed):
        _, weights, z = make_case(seed)
        a1 = float_conv(z, weights.conv1_weight)
        reference = float_bn(a1, weights.bn1_gamma, weights.bn1_beta)
        fixed = hw_batch_norm(
            FxArray.from_float(a1, Q20),
            FxArray.from_float(weights.bn1_gamma, Q20),
            FxArray.from_float(weights.bn1_beta, Q20),
        )
        error = float(np.max(np.abs(fixed.to_float() - reference)))
        mag = bn_magnitudes(a1)
        bound = batch_norm_error_bound(
            Q20,
            input_error=Q20.resolution / 2.0,
            centered_max=mag["centered_max"],
            sigma_min=mag["sigma_min"],
        )
        assert error <= bound
        assert bound < 0.05  # tight against an O(1) output range


class TestEndToEnd:
    @pytest.mark.parametrize("fmt", [Q20, Q16], ids=["Q20", "Q16"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dynamics_error_within_composed_bound(self, fmt, seed):
        geometry, weights, z = make_case(seed)
        stages = float_reference_stages(weights, z)
        bound = composed_bound(fmt, weights, z, stages)
        hw = HardwareODEBlock(geometry, weights, n_units=4, qformat=fmt)
        error = float(np.max(np.abs(hw.dynamics(z) - stages["output"])))
        assert error <= bound.total
        if fmt is Q20:
            # The paper's format tracks float to a few 1e-5 on this block.
            assert error < 5e-4

    def test_full_size_layer3_2_within_bound(self):
        rng = np.random.default_rng(7)
        weights = BlockWeights.random(LAYER3_2, rng, scale=0.05)
        z = rng.normal(0.0, 0.3, size=(64, 8, 8))
        stages = float_reference_stages(weights, z)
        bound = composed_bound(Q20, weights, z, stages)
        hw = HardwareODEBlock(LAYER3_2, weights, n_units=16)
        error = float(np.max(np.abs(hw.dynamics(z) - stages["output"])))
        assert error <= bound.total
        assert error < 5e-4

    def test_residual_euler_step_error(self):
        """One Euler step adds the state error to the dynamics error."""

        geometry, weights, z = make_case(11)
        stages = float_reference_stages(weights, z)
        bound = composed_bound(Q20, weights, z, stages)
        hw = HardwareODEBlock(geometry, weights, n_units=4)
        out, _ = hw.execute(z)
        float_step = z + stages["output"]
        # Residual add: input quantisation + dynamics error + one truncation.
        step_bound = bound.input_error + bound.total + Q20.resolution
        assert float(np.max(np.abs(out - float_step))) <= step_bound


class TestBoundStructure:
    def test_bound_tightens_with_fraction_bits(self):
        """More fraction bits -> a strictly smaller bound (footnote 2)."""

        _, weights, z = make_case(3)
        stages = float_reference_stages(weights, z)
        bounds = [
            composed_bound(fmt, weights, z, stages).total
            for fmt in (QFormat(32, 20), QFormat(16, 8), QFormat(12, 6))
        ]
        assert bounds[0] < bounds[1] < bounds[2]

    def test_stage_bounds_are_monotone_along_the_pipeline(self):
        """Errors can only accumulate: each stage's bound dominates its input's."""

        _, weights, z = make_case(5)
        stages = float_reference_stages(weights, z)
        b = composed_bound(Q20, weights, z, stages)
        assert b.input_error < b.conv1_error < b.bn1_error < b.conv2_error < b.bn2_error
        assert b.total == b.bn2_error
