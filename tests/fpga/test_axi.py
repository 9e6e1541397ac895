"""Tests for the PS<->PL AXI/DMA transfer model."""

from __future__ import annotations

import pytest

from repro.fpga import LAYER1, LAYER3_2, AxiTransferModel


class TestPaperAssumption:
    """Section 4.4: 1 cycle per float32 at the 100 MHz PL clock."""

    def test_one_cycle_per_word(self):
        model = AxiTransferModel()
        assert model.transfer_cycles(1000) == 1000

    def test_layer3_2_round_trip(self):
        model = AxiTransferModel()
        est = model.block_round_trip(LAYER3_2)
        assert est.words_in == 64 * 8 * 8
        assert est.words_out == 64 * 8 * 8
        assert est.cycles == 2 * 4096
        assert est.seconds == pytest.approx(2 * 4096 / 100e6)

    def test_transfer_negligible_vs_compute(self):
        """The paper's transfer assumption keeps DMA ~0.5 % of the conv_x16 time."""

        from repro.fpga import OdeBlockCycleModel

        transfer = AxiTransferModel().block_round_trip(LAYER3_2).seconds
        compute = OdeBlockCycleModel().block_time_seconds(LAYER3_2, 16)
        assert transfer / compute < 0.01


class TestTransferModelBehaviour:
    def test_zero_words(self):
        assert AxiTransferModel().transfer_cycles(0) == 0.0

    def test_negative_words_rejected(self):
        with pytest.raises(ValueError):
            AxiTransferModel().transfer_cycles(-1)

    def test_slower_assumption_scales_linearly(self):
        fast = AxiTransferModel(cycles_per_word=1.0)
        slow = AxiTransferModel(cycles_per_word=4.0)
        assert slow.block_round_trip(LAYER1).cycles == 4 * fast.block_round_trip(LAYER1).cycles
