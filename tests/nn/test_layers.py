"""Tests for the Module system and the standard layers."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor


class _ReLU(nn.Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class TestModuleSystem:
    def _small_net(self):
        return nn.Sequential(
            nn.Conv2d(3, 4),
            nn.BatchNorm2d(4),
            _ReLU(),
            nn.GlobalAvgPool2d(),
            nn.Linear(4, 2),
        )

    def test_parameters_discovered_recursively(self):
        net = self._small_net()
        names = [n for n, _ in net.named_parameters()]
        # conv weight, bn gamma/beta, linear weight/bias
        assert len(names) == 5
        assert any("m0" in n for n in names) and any("m4" in n for n in names)

    def test_num_parameters_counts_scalars(self):
        net = self._small_net()
        expected = 4 * 3 * 9 + 4 + 4 + 2 * 4 + 2
        assert net.num_parameters() == expected

    def test_named_buffers_include_running_stats(self):
        net = self._small_net()
        buffer_names = [n for n, _ in net.named_buffers()]
        assert any("running_mean" in n for n in buffer_names)
        assert any("running_var" in n for n in buffer_names)

    def test_train_eval_propagates(self):
        net = self._small_net()
        net.eval()
        assert not net.training and not net.m1.training
        net.train()
        assert net.training and net.m1.training

    def test_state_dict_roundtrip(self, rng):
        net1 = self._small_net()
        net2 = self._small_net()
        # Nets start different (random init with different default seeds may
        # coincide, so force a difference).
        net2.parameters()[0].data += 1.0
        state = net1.state_dict()
        net2.load_state_dict(state)
        for p1, p2 in zip(net1.parameters(), net2.parameters()):
            np.testing.assert_allclose(p1.data, p2.data)

    def test_state_dict_contains_buffers(self):
        net = self._small_net()
        state = net.state_dict()
        assert any("running_mean" in k for k in state)

    def test_forward_not_implemented_on_base(self):
        with pytest.raises(NotImplementedError):
            nn.Module().forward(None)


class TestSequential:
    def test_len_getitem_iter(self):
        assert len(nn.Sequential(_ReLU(), _ReLU())) == 2

    def test_forward_order(self):
        seq = nn.Sequential(_ReLU(), nn.Linear(4, 3))
        out = seq(Tensor(np.ones((2, 4))))
        assert out.shape == (2, 3)


class TestConvLayer:
    def test_shapes_and_default_no_bias(self, rng):
        conv = nn.Conv2d(3, 8, stride=1, rng=rng)
        assert conv.parameters() == [conv.weight]
        assert conv.weight.shape == (8, 3, 3, 3)
        out = conv(Tensor(rng.normal(size=(2, 3, 10, 10))))
        assert out.shape == (2, 8, 10, 10)

    def test_kaiming_init_scale(self):
        rng = np.random.default_rng(0)
        conv = nn.Conv2d(16, 16, rng=rng)
        std = conv.weight.data.std()
        expected = np.sqrt(2.0 / (16 * 9))
        assert std == pytest.approx(expected, rel=0.2)


class TestBatchNormLayer:
    def test_training_vs_eval_paths_differ(self, rng):
        bn = nn.BatchNorm2d(4)
        x = Tensor(rng.normal(loc=3.0, size=(8, 4, 5, 5)))
        train_out = bn(x)
        bn.eval()
        eval_out = bn(x)
        assert not np.allclose(train_out.data, eval_out.data)

    def test_buffers_are_shared_references(self, rng):
        bn = nn.BatchNorm2d(2)
        before = bn.running_mean.copy()
        bn(Tensor(rng.normal(loc=5.0, size=(4, 2, 3, 3))))
        assert not np.allclose(bn.running_mean, before)


class TestLinearAndMisc:
    def test_linear_shapes(self, rng):
        lin = nn.Linear(10, 5, rng=rng)
        out = lin(Tensor(rng.normal(size=(3, 10))))
        assert out.shape == (3, 5)

    def test_identity_passthrough(self):
        x = Tensor(np.arange(5.0))
        assert nn.Identity()(x) is x

    def test_global_avg_pool_layer(self):
        out = nn.GlobalAvgPool2d()(Tensor(np.ones((2, 5, 4, 4))))
        assert out.shape == (2, 5)


class TestEndToEndGradientFlow:
    def test_small_cnn_gradients_nonzero(self, rng):
        net = nn.Sequential(
            nn.Conv2d(3, 4, rng=rng),
            nn.BatchNorm2d(4),
            _ReLU(),
            nn.Conv2d(4, 4, rng=rng),
            nn.BatchNorm2d(4),
            _ReLU(),
            nn.GlobalAvgPool2d(),
            nn.Linear(4, 3, rng=rng),
        )
        x = Tensor(rng.normal(size=(4, 3, 8, 8)))
        loss = nn.CrossEntropyLoss()(net(x), np.array([0, 1, 2, 0]))
        loss.backward()
        for name, p in net.named_parameters():
            assert p.grad is not None, f"no gradient for {name}"
            assert np.any(p.grad != 0) or "beta" in name or "bias" in name
