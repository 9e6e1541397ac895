"""Tests for the cycle-approximate datapath scheduler.

The key property: the schedule simulation (built from the datapath structure)
and the analytical cycle model (built from fitted constants) must agree with
each other and with the paper's published counts.
"""

from __future__ import annotations

import pytest

from repro.fpga import (
    LAYER1,
    LAYER2_2,
    LAYER3_2,
    PAPER_LAYER3_2_CYCLES,
    OdeBlockCycleModel,
)
from scheduler import DatapathScheduler


class TestChannelAssignment:
    def test_round_robin_balanced_when_divisible(self):
        sched = DatapathScheduler()
        assignment = sched.assign_output_channels(64, 16)
        assert len(assignment) == 16
        assert all(len(chs) == 4 for chs in assignment)
        flat = [c for chs in assignment for c in chs]
        assert sorted(flat) == list(range(64))

    def test_capped_by_channel_count(self):
        sched = DatapathScheduler()
        assignment = sched.assign_output_channels(16, 32)
        assert len(assignment) == 16
        assert all(len(chs) == 1 for chs in assignment)

    def test_imbalanced_assignment(self):
        sched = DatapathScheduler()
        assignment = sched.assign_output_channels(10, 4)
        sizes = sorted(len(chs) for chs in assignment)
        assert sizes == [2, 2, 3, 3]


class TestAgainstPaperAndAnalyticalModel:
    @pytest.mark.parametrize("n_units,published", sorted(PAPER_LAYER3_2_CYCLES.items()))
    def test_simulated_layer3_2_cycles_match_paper(self, n_units, published):
        trace = DatapathScheduler().simulate_block(LAYER3_2, n_units)
        assert trace.total_cycles == pytest.approx(published, rel=0.02)

    @pytest.mark.parametrize("layer", [LAYER1, LAYER2_2, LAYER3_2])
    @pytest.mark.parametrize("n_units", [1, 4, 8, 16])
    def test_simulation_matches_analytical_model(self, layer, n_units):
        simulated = DatapathScheduler().simulate_block(layer, n_units).total_cycles
        analytical = OdeBlockCycleModel().block_cycles(layer, n_units).total
        assert simulated == pytest.approx(analytical, rel=0.01)

    def test_full_utilization_when_divisible(self):
        trace = DatapathScheduler().simulate_block(LAYER3_2, 16)
        assert trace.utilization() == pytest.approx(1.0)

    def test_imbalance_lowers_utilization_and_raises_cycles(self):
        """A unit count that does not divide the channels leaves units idle."""

        sched = DatapathScheduler()
        balanced = sched.simulate_block(LAYER3_2, 16)
        imbalanced = sched.simulate_block(LAYER3_2, 24)  # 64 channels / 24 units
        assert imbalanced.utilization() < 1.0
        # 24 units should still not be slower than 16.
        assert imbalanced.conv_cycles <= balanced.conv_cycles
        # But it is no better than 22 units' ideal because of the imbalance:
        # the critical unit owns ceil(64/24) = 3 channels, same as at 22+.
        assert imbalanced.conv_cycles == pytest.approx(
            sched.simulate_block(LAYER3_2, 32).conv_cycles * 3 / 2, rel=0.01
        )


class TestSchedulerMechanics:
    def test_two_conv_passes_recorded(self):
        trace = DatapathScheduler().simulate_block(LAYER2_2, 8)
        assert len(trace.conv_passes) == 2
        assert trace.conv_cycles > 0 and trace.bn_cycles > 0

    def test_relu_fused_by_default(self):
        assert DatapathScheduler().simulate_block(LAYER1, 8).relu_cycles == 0.0
        unfused = DatapathScheduler(relu_fused=False).simulate_block(LAYER1, 8)
        assert unfused.relu_cycles > 0

    def test_invalid_issue_interval(self):
        with pytest.raises(ValueError):
            DatapathScheduler(issue_interval=0)

    def test_sweep_keys_and_monotonicity(self):
        sweep = DatapathScheduler().sweep(LAYER3_2)
        totals = [sweep[n].total_cycles for n in (1, 4, 8, 16, 32)]
        assert all(a > b for a, b in zip(totals, totals[1:]))

    def test_as_dict(self):
        d = DatapathScheduler().simulate_block(LAYER1, 4).as_dict()
        assert set(d) == {"conv_cycles", "bn_cycles", "relu_cycles", "total_cycles", "mac_utilization"}
