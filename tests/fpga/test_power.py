"""Tests for the power / energy model."""

from __future__ import annotations

import pytest

from repro.core import ExecutionTimeModel
from repro.fpga import PowerModel, PowerProfile, ResourceEstimator, ResourceVector
from repro.fpga.power import pl_power_kernel


@pytest.fixture(scope="module")
def power_model():
    return PowerModel()


@pytest.fixture(scope="module")
def layer3_2_resources():
    return ResourceEstimator().estimate("layer3_2", 16).resources


class TestComponentPowers:
    def test_pl_power_scales_with_resources(self, power_model):
        small = power_model.pl_power_w(ResourceVector(bram=10, dsp=10, lut=0, ff=0))
        large = power_model.pl_power_w(ResourceVector(bram=100, dsp=200, lut=0, ff=0))
        assert large > small > power_model.power.pl_static_w

    def test_custom_config(self):
        power = PowerProfile(ps_active_w=2.0, pl_static_w=0.0, pl_dynamic_base_w=0.0,
                             pl_dynamic_per_dsp_w=0.0, pl_dynamic_per_bram_w=0.0)
        assert pl_power_kernel(100, 100, power) == 0.0


class TestEnergyEstimates:
    def test_software_only_energy(self, power_model):
        report = ExecutionTimeModel().report("ResNet", 56)
        estimate = power_model.energy_without_pl(report)
        assert estimate.pl_energy_j == 0.0
        assert estimate.ps_energy_j == pytest.approx(1.3 * report.total_without_pl)
        assert estimate.total_energy_j / estimate.seconds == pytest.approx(1.3)

    def test_offloaded_energy_lower_for_rodenet3(self, power_model, layer3_2_resources):
        """The offload saves energy as well as time for rODENet-3-56."""

        report = ExecutionTimeModel().report("rODENet-3", 56)
        comparison = power_model.compare_report(report, layer3_2_resources)
        assert comparison["energy_ratio"] > 2.0
        assert comparison["time_speedup"] == pytest.approx(2.66, abs=0.05)

    def test_energy_ratio_exceeds_time_speedup(self, power_model, layer3_2_resources):
        """While the PL computes, the PS idles at ~0.3 W instead of 1.3 W, so
        the energy ratio is even better than the time speedup."""

        report = ExecutionTimeModel().report("rODENet-3", 56)
        comparison = power_model.compare_report(report, layer3_2_resources)
        assert comparison["energy_ratio"] > comparison["time_speedup"]

    def test_resnet_comparison_is_neutral(self, power_model):
        report = ExecutionTimeModel().report("ResNet", 56)
        comparison = power_model.compare_report(report, ResourceVector())
        # No offload target: identical time, small PL static overhead only.
        assert comparison["time_speedup"] == 1.0
        assert comparison["energy_ratio"] == pytest.approx(1.0, rel=0.2)
