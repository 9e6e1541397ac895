"""Tests for the PS/PL partition description."""

from __future__ import annotations

import pytest

from repro.hwsw import Partition


class TestPartition:
    def test_software_only(self):
        p = Partition()
        assert p.pl_layers == ()
        assert not any(p.runs_on_pl(layer) for layer in ("layer1", "layer2_2", "layer3_2"))

    def test_offload_single_layer(self):
        p = Partition.offload("layer3_2")
        assert p.runs_on_pl("layer3_2")
        assert not p.runs_on_pl("layer1")
        assert not p.runs_on_pl("conv1")

    def test_offload_two_layers(self):
        p = Partition.offload("layer1", "layer2_2")
        assert p.runs_on_pl("layer1") and p.runs_on_pl("layer2_2")

    @pytest.mark.parametrize("bad", ["conv1", "layer2_1", "layer3_1", "fc", "layer9"])
    def test_non_offloadable_layers_rejected(self, bad):
        with pytest.raises(ValueError, match="cannot be offloaded"):
            Partition.offload(bad)

    def test_frozen(self):
        p = Partition.offload("layer1")
        with pytest.raises(Exception):
            p.pl_layers = ("layer3_2",)  # type: ignore[misc]
