"""Platform layer: board registry, catalog sanity, single-source clocks."""

from __future__ import annotations

import dataclasses

import pytest

from repro.platform import (
    BOARDS,
    BoardSpec,
    DEFAULT_BOARD,
    FpgaDevice,
    PYNQ_Z2,
    PowerProfile,
    ULTRA96_V2,
    ZCU104,
    ZYBO_Z7_20,
    ZYNQ_XC7Z020,
    get_board,
    list_boards,
    register_board,
)
from repro.fpga.axi import AxiTransferModel
from repro.fpga.timing import BASE_DELAY_NS, PER_LEVEL_DELAY_NS, TimingModel
from repro.fpga.power import PowerModel
from repro.hwsw.ps_model import PER_IMAGE_OVERHEAD_S, SoftwareCostModel


class TestRegistry:
    def test_catalog_is_seeded(self):
        assert list_boards() == ("PYNQ-Z2", "Zybo-Z7-20", "Ultra96-V2", "ZCU104")
        assert len(BOARDS) >= 4

    def test_get_board_round_trip(self):
        for name in list_boards():
            assert get_board(name).name == name
            assert BOARDS[name] is get_board(name)

    def test_unknown_board_lists_registered_names(self):
        with pytest.raises(KeyError, match="registered boards: PYNQ-Z2"):
            get_board("DE10-Nano")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_board(PYNQ_Z2)
        assert get_board("PYNQ-Z2") is PYNQ_Z2

    def test_register_board_type_checked(self):
        with pytest.raises(TypeError):
            register_board("PYNQ-Z2")

    def test_custom_board_registers_and_unregisters(self):
        custom = dataclasses.replace(PYNQ_Z2, name="Custom-7020")
        register_board(custom)
        try:
            assert get_board("Custom-7020") is custom
            assert "Custom-7020" in BOARDS
        finally:
            from repro.platform.registry import _REGISTRY

            _REGISTRY.pop("Custom-7020")
        assert "Custom-7020" not in list_boards()


class TestCatalog:
    def test_reference_board_pins_the_paper_constants(self):
        # Table 1 of the paper — the values every calibrated default derives
        # from.  Changing any of these breaks the goldens; this test names
        # the blast radius explicitly.
        assert DEFAULT_BOARD is PYNQ_Z2
        assert PYNQ_Z2.ps_clock_hz == 650e6
        assert PYNQ_Z2.pl_clock_hz == 100e6
        assert PYNQ_Z2.ps_cores == 2
        assert PYNQ_Z2.dram_mb == 512
        assert PYNQ_Z2.fabric_delay_scale == 1.0
        assert PYNQ_Z2.fpga is ZYNQ_XC7Z020
        assert (ZYNQ_XC7Z020.bram36, ZYNQ_XC7Z020.dsp) == (140, 220)
        assert PYNQ_Z2.power == PowerProfile()

    @pytest.mark.parametrize("board", [PYNQ_Z2, ZYBO_Z7_20, ULTRA96_V2, ZCU104])
    def test_board_values_are_physical(self, board: BoardSpec):
        assert board.ps_clock_hz > 0 and board.pl_clock_hz > 0
        assert board.ps_cores >= 1 and board.dram_mb > 0
        assert 0 < board.fabric_delay_scale <= 1.0
        fpga = board.fpga
        assert fpga.bram36 > 0 and fpga.dsp > 0 and fpga.lut > 0 and fpga.ff > 0
        p = board.power
        assert p.ps_active_w > p.ps_idle_w > 0
        assert p.pl_static_w > 0 and p.pl_dynamic_base_w > 0

    @pytest.mark.parametrize("board", [PYNQ_Z2, ZYBO_Z7_20, ULTRA96_V2, ZCU104])
    def test_conv_x16_closes_timing_on_every_board(self, board: BoardSpec):
        # The paper's workhorse configuration must be feasible everywhere,
        # otherwise cross-board sweeps of the default scenario are vacuous.
        model = TimingModel(board)
        assert model.analyze(16).meets_timing

    def test_bigger_fabrics_strictly_dominate(self):
        small, large = ZYNQ_XC7Z020, ZCU104.fpga
        assert large.bram36 > small.bram36
        assert large.dsp > small.dsp
        assert large.lut > small.lut
        assert large.ff > small.ff


class TestSingleSourceOfTruth:
    """Satellite: every clock default derives from BoardSpec, nowhere else."""

    def test_axi_and_timing_share_the_board_pl_clock(self):
        assert AxiTransferModel().clock_hz == PYNQ_Z2.pl_clock_hz
        assert TimingModel().target_clock_hz == PYNQ_Z2.pl_clock_hz

    def test_ps_clock_default_derives_from_the_board(self):
        assert SoftwareCostModel().clock_hz == PYNQ_Z2.ps_clock_hz

    def test_power_defaults_derive_from_the_board_profile(self):
        assert PowerModel().power == PYNQ_Z2.power

    @pytest.mark.parametrize("board", [ZYBO_Z7_20, ULTRA96_V2, ZCU104])
    def test_for_board_rebinds_every_constant(self, board: BoardSpec):
        assert AxiTransferModel(board).clock_hz == board.pl_clock_hz
        timing = TimingModel(board)
        assert timing.target_clock_hz == board.pl_clock_hz
        assert timing.base_delay_ns == pytest.approx(5.0 * board.fabric_delay_scale)
        ps = SoftwareCostModel(board)
        assert ps.clock_hz == board.ps_clock_hz
        # Fixed overhead is CPU work: it shrinks as the PS clock grows.
        assert ps.per_image_overhead() == pytest.approx(
            0.028 * PYNQ_Z2.ps_clock_hz / board.ps_clock_hz
        )
        assert PowerModel(board).power.ps_active_w == board.power.ps_active_w

    def test_reference_board_configs_equal_the_calibrated_defaults(self):
        # Bit-for-bit: deriving from the reference board must not perturb a
        # single calibration constant (the goldens depend on it).
        assert SoftwareCostModel(PYNQ_Z2).per_image_overhead() == PER_IMAGE_OVERHEAD_S
        timing = TimingModel(PYNQ_Z2)
        assert (timing.base_delay_ns, timing.per_level_delay_ns) == (
            BASE_DELAY_NS, PER_LEVEL_DELAY_NS,
        )
        assert AxiTransferModel(PYNQ_Z2).clock_hz == PYNQ_Z2.pl_clock_hz
        assert PowerModel(PYNQ_Z2).power == DEFAULT_BOARD.power
