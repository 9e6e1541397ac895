"""Tests for the executable network builders (all seven variants)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.core import VARIANT_NAMES, build_network, count_block_executions, variant_spec
from repro.core.odeblock import ODEBlock, PlainBlock
from repro.nn import CrossEntropyLoss, SGD, Tensor


def small(variant, depth=20, **kwargs):
    """A reduced-width instance for fast functional tests."""

    defaults = dict(num_classes=5, base_width=4)
    defaults.update(kwargs)
    return build_network(variant, depth, **defaults)


class TestConstruction:
    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_forward_shape_all_variants(self, variant, rng):
        model = small(variant)
        x = Tensor(rng.normal(size=(2, 3, 16, 16)))
        out = model(x)
        assert out.shape == (2, 5)

    def test_stage_realisations_resnet(self):
        model = small("ResNet")
        assert isinstance(model.layer1, nn.Sequential)
        assert isinstance(model.layer3_2, nn.Sequential)
        assert len(model.layer1) == 3  # (20-2)/6

    def test_stage_realisations_odenet(self):
        model = small("ODENet")
        assert isinstance(model.layer1, ODEBlock)
        assert isinstance(model.layer2_2, ODEBlock)
        assert isinstance(model.layer3_2, ODEBlock)
        assert model.layer3_2.num_steps == 2  # (20-8)/6

    def test_stage_realisations_rodenet3(self):
        model = small("rODENet-3")
        assert isinstance(model.layer1, PlainBlock)
        assert isinstance(model.layer2_2, nn.Identity)
        assert isinstance(model.layer3_2, ODEBlock)
        assert model.layer3_2.num_steps == 6  # (20-8)/2

    def test_stage_realisations_hybrid3(self):
        model = small("Hybrid-3")
        assert isinstance(model.layer1, nn.Sequential)
        assert isinstance(model.layer3_2, ODEBlock)

    def test_downsample_stages_always_plain(self):
        for variant in VARIANT_NAMES:
            model = small(variant)
            assert isinstance(model.layer2_1, PlainBlock)
            assert isinstance(model.layer3_1, PlainBlock)
            assert model.layer2_1.stride == 2

    def test_unknown_stage_lookup(self):
        with pytest.raises(KeyError):
            small("ResNet").stage_module("conv9")


class TestExecutionCounts:
    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    @pytest.mark.parametrize("depth", [20, 32])
    def test_block_executions_match_table4(self, variant, depth):
        model = small(variant, depth)
        counts = count_block_executions(model)
        spec = variant_spec(variant, depth)
        for layer in ("layer1", "layer2_2", "layer3_2"):
            assert counts[layer] == spec.plan(layer).total_executions, (variant, layer)


class TestParameterSharing:
    def test_odenet_has_fewer_parameters_than_resnet(self):
        resnet = small("ResNet", 32)
        odenet = small("ODENet", 32)
        assert odenet.num_parameters() < resnet.num_parameters()

    def test_ode_variant_parameters_independent_of_depth(self):
        assert small("ODENet", 20).num_parameters() == small("ODENet", 56).num_parameters()

    def test_resnet_parameters_grow_with_depth(self):
        assert small("ResNet", 56).num_parameters() > small("ResNet", 20).num_parameters()

    def test_full_width_matches_parameter_model(self):
        """The executable ResNet-20 matches the analytical parameter count."""

        from repro.core import variant_parameter_count

        model = build_network("ResNet", 20, num_classes=100, base_width=16)
        assert model.num_parameters() == variant_parameter_count("ResNet", 20)

    def test_full_width_odenet_matches_parameter_model(self):
        from repro.core import variant_parameter_count

        model = build_network("rODENet-3", 20, num_classes=100, base_width=16)
        assert model.num_parameters() == variant_parameter_count("rODENet-3", 20)


class TestTraining:
    def test_one_sgd_step_reduces_loss(self, rng):
        model = small("rODENet-3")
        x = Tensor(rng.normal(size=(8, 3, 16, 16)))
        y = rng.integers(0, 5, size=8)
        criterion = CrossEntropyLoss()
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.0, weight_decay=0.0)

        model.train()
        losses = []
        for _ in range(3):
            logits = model(x)
            loss = criterion(logits, y)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0]

    def test_eval_mode_is_deterministic(self, rng):
        model = small("ODENet")
        model.eval()
        x = Tensor(rng.normal(size=(2, 3, 16, 16)))
        out1 = model(x).data
        out2 = model(x).data
        np.testing.assert_allclose(out1, out2)

    def test_features_output_channels(self, rng):
        model = small("ResNet")
        h = model.features(Tensor(rng.normal(size=(1, 3, 16, 16))))
        assert h.shape == (1, 16, 4, 4)  # base_width*4 channels, /4 spatial
