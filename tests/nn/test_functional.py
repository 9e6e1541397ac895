"""Tests for the differentiable NN primitives (conv, BN, pooling, losses)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.layers import Parameter


def _numeric_grad(fn, array, idx, eps=1e-6):
    orig = array[idx]
    array[idx] = orig + eps
    fp = fn()
    array[idx] = orig - eps
    fm = fn()
    array[idx] = orig
    return (fp - fm) / (2 * eps)


class TestConv2d:
    def test_output_shape_stride1(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        w = Tensor(rng.normal(size=(5, 3, 3, 3)))
        out = F.conv2d(x, w, stride=1, padding=1)
        assert out.shape == (2, 5, 8, 8)

    def test_output_shape_stride2(self, rng):
        x = Tensor(rng.normal(size=(1, 4, 8, 8)))
        w = Tensor(rng.normal(size=(8, 4, 3, 3)))
        out = F.conv2d(x, w, stride=2, padding=1)
        assert out.shape == (1, 8, 4, 4)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 4, 4)))
        w = Tensor(rng.normal(size=(2, 4, 3, 3)))
        with pytest.raises(ValueError, match="channel mismatch"):
            F.conv2d(x, w)

    def test_identity_kernel(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = F.conv2d(x, Tensor(w), stride=1, padding=1)
        np.testing.assert_allclose(out.data, x.data)

    def test_weight_gradient_matches_numeric(self, rng):
        x = Tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
        w = Parameter(rng.normal(size=(3, 2, 3, 3)) * 0.1)

        def loss_value():
            out = F.conv2d(x, w, stride=1, padding=1)
            return float((out.data ** 2).sum())

        out = F.conv2d(x, w, stride=1, padding=1)
        (out * out).sum().backward()

        for tensor, idx in [(w, (1, 0, 2, 1)), (x, (0, 1, 2, 3))]:
            numeric = _numeric_grad(loss_value, tensor.data, idx)
            assert tensor.grad[idx] == pytest.approx(numeric, rel=1e-4, abs=1e-6)

    def test_strided_gradient_matches_numeric(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 6, 6)), requires_grad=True)
        w = Parameter(rng.normal(size=(2, 2, 3, 3)) * 0.1)

        def loss_value():
            return float((F.conv2d(x, w, stride=2, padding=1).data ** 2).sum())

        out = F.conv2d(x, w, stride=2, padding=1)
        (out * out).sum().backward()
        idx = (1, 1, 0, 2)
        assert w.grad[idx] == pytest.approx(_numeric_grad(loss_value, w.data, idx), rel=1e-4)


#: (kernel, stride, padding) grid of the layout-free conformance tests.
CONV_GEOMETRIES = [
    pytest.param(k, s, p, id=f"k{k}-s{s}-p{p}") for k in (1, 3) for s in (1, 2) for p in (0, 1)
]


class TestConv2dConformance:
    """conv2d and its gradients against a direct, im2col-free convolution."""

    @pytest.mark.parametrize("kernel,stride,padding", CONV_GEOMETRIES)
    def test_forward_matches_direct_conv(self, rng, conv_oracle, kernel, stride, padding):
        x = rng.normal(size=(2, 3, 7, 7))
        w = rng.normal(size=(4, 3, kernel, kernel))
        out = F.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding)
        np.testing.assert_allclose(
            out.data, conv_oracle(x, w, stride, padding), rtol=1e-12, atol=1e-12
        )

    @pytest.mark.parametrize("kernel,stride,padding", CONV_GEOMETRIES)
    def test_gradients_match_finite_differences(
        self, rng, conv_oracle, gradcheck, kernel, stride, padding
    ):
        # A loss linear in each entry makes central differences exact up to
        # rounding, so every entry of both gradients (the input's through
        # col2im) is checked, not a sample.
        x = rng.normal(size=(2, 3, 5, 5))
        w = rng.normal(size=(4, 3, kernel, kernel))
        probe = rng.normal(size=conv_oracle(x, w, stride, padding).shape)
        xt, wt = Tensor(x, requires_grad=True), Parameter(w)
        (F.conv2d(xt, wt, stride=stride, padding=padding) * Tensor(probe)).sum().backward()

        def loss():
            return float(np.sum(conv_oracle(x, w, stride, padding) * probe))

        for tensor, array in ((xt, x), (wt, w)):
            numeric = gradcheck(loss, array, list(np.ndindex(array.shape))).reshape(array.shape)
            np.testing.assert_allclose(tensor.grad, numeric, rtol=1e-6, atol=1e-8)


class TestBatchNorm:
    def test_training_normalises_batch(self, rng):
        x = Tensor(rng.normal(loc=5.0, scale=3.0, size=(8, 4, 6, 6)))
        gamma = Parameter(np.ones(4))
        beta = Parameter(np.zeros(4))
        running_mean = np.zeros(4)
        running_var = np.ones(4)
        out = F.batch_norm2d(x, gamma, beta, running_mean, running_var, training=True)
        assert abs(out.data.mean()) < 1e-6
        assert out.data.std() == pytest.approx(1.0, rel=1e-2)

    def test_running_stats_updated(self, rng):
        x = Tensor(rng.normal(loc=2.0, size=(16, 3, 4, 4)))
        gamma, beta = Parameter(np.ones(3)), Parameter(np.zeros(3))
        running_mean = np.zeros(3)
        running_var = np.ones(3)
        F.batch_norm2d(x, gamma, beta, running_mean, running_var, training=True)
        np.testing.assert_allclose(running_mean, F.BN_MOMENTUM * x.data.mean(axis=(0, 2, 3)))

    def test_eval_uses_running_stats(self, rng):
        x = Tensor(rng.normal(size=(4, 2, 3, 3)))
        gamma, beta = Parameter(np.full(2, 2.0)), Parameter(np.full(2, 1.0))
        running_mean = np.zeros(2)
        running_var = np.ones(2)
        out = F.batch_norm2d(x, gamma, beta, running_mean, running_var, training=False)
        expected = 2.0 * x.data / np.sqrt(1.0 + F.BN_EPS) + 1.0
        np.testing.assert_allclose(out.data, expected, rtol=1e-10)

    def test_gamma_beta_gradients(self, rng):
        x = Tensor(rng.normal(size=(4, 3, 4, 4)), requires_grad=True)
        gamma = Parameter(np.ones(3))
        beta = Parameter(np.zeros(3))
        rm, rv = np.zeros(3), np.ones(3)

        def loss_value():
            out = F.batch_norm2d(x, gamma, beta, rm.copy(), rv.copy(), training=True)
            return float((out.data ** 2).sum())

        out = F.batch_norm2d(x, gamma, beta, rm.copy(), rv.copy(), training=True)
        (out * out).sum().backward()
        for tensor, idx in [(gamma, (1,)), (beta, (2,)), (x, (1, 2, 0, 3))]:
            numeric = _numeric_grad(loss_value, tensor.data, idx)
            assert tensor.grad[idx] == pytest.approx(numeric, rel=1e-3, abs=1e-5)


class TestPooling:
    def test_global_avg_pool_shape_and_value(self):
        x = Tensor(np.ones((2, 3, 4, 4)) * 2.0)
        out = F.global_avg_pool2d(x)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.data, 2.0)

def _softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class TestSoftmaxAndLosses:
    def test_softmax_sums_to_one(self, rng):
        logits = Tensor(rng.normal(size=(5, 10)) * 10)
        probs = np.exp(F.log_softmax(logits, axis=1).data)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-10)

    def test_softmax_stable_for_large_values(self):
        logits = Tensor(np.array([[1000.0, 1000.0]]))
        log_probs = F.log_softmax(logits, axis=1)
        np.testing.assert_allclose(log_probs.data, np.log([[0.5, 0.5]]))

    def test_log_softmax_matches_log_of_softmax(self, rng):
        logits = Tensor(rng.normal(size=(3, 7)))
        np.testing.assert_allclose(
            F.log_softmax(logits).data, np.log(_softmax(logits.data)), rtol=1e-10
        )

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((4, 10)))
        loss = F.cross_entropy(logits, np.array([0, 1, 2, 3]))
        assert loss.item() == pytest.approx(np.log(10))

    def test_cross_entropy_perfect_prediction_near_zero(self):
        logits = np.full((2, 5), -100.0)
        logits[0, 2] = 100.0
        logits[1, 4] = 100.0
        loss = F.cross_entropy(Tensor(logits), np.array([2, 4]))
        assert loss.item() == pytest.approx(0.0, abs=1e-8)

    def test_cross_entropy_gradient_is_softmax_minus_onehot(self, rng):
        logits = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        targets = np.array([1, 0, 3])
        loss = F.cross_entropy(logits, targets)
        loss.backward()
        probs = _softmax(logits.data)
        onehot = np.eye(4)[targets]
        np.testing.assert_allclose(logits.grad, (probs - onehot) / 3, rtol=1e-8)
