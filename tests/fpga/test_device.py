"""Tests for the device / board specifications and ResourceVector."""

from __future__ import annotations

import pytest

from repro.fpga import PYNQ_Z2, ZYNQ_XC7Z020, FpgaDevice, ResourceVector


class TestZynqDevice:
    """The XC7Z020 totals must be consistent with Table 3's percentages."""

    def test_totals(self):
        assert ZYNQ_XC7Z020.bram36 == 140
        assert ZYNQ_XC7Z020.dsp == 220
        assert ZYNQ_XC7Z020.lut == 53200
        assert ZYNQ_XC7Z020.ff == 106400

    def test_table3_percentage_consistency(self):
        # 56 BRAM = 40.00 %, 68 DSP = 30.91 %, 1486 LUT = 2.79 %, 835 FF = 0.78 %.
        used = ResourceVector(bram=56, dsp=68, lut=1486, ff=835)
        pct = used.utilization(ZYNQ_XC7Z020)
        assert pct["bram"] == pytest.approx(40.00, abs=0.01)
        assert pct["dsp"] == pytest.approx(30.91, abs=0.01)
        assert pct["lut"] == pytest.approx(2.79, abs=0.01)
        assert pct["ff"] == pytest.approx(0.78, abs=0.01)


class TestPynqBoard:
    def test_table1_specification(self):
        assert PYNQ_Z2.ps_clock_mhz == pytest.approx(650.0)
        assert PYNQ_Z2.ps_cores == 2
        assert PYNQ_Z2.dram_mb == 512
        assert PYNQ_Z2.pl_clock_mhz == pytest.approx(100.0)
        assert PYNQ_Z2.fpga is ZYNQ_XC7Z020


class TestResourceVector:
    def test_addition_and_scaling(self):
        a = ResourceVector(bram=10, dsp=5, lut=100, ff=200)
        b = ResourceVector(bram=1, dsp=2, lut=3, ff=4)
        total = a + b
        assert total.bram == 11 and total.dsp == 7 and total.lut == 103 and total.ff == 204
        doubled = a.scale(2.0)
        assert doubled.lut == 200

    def test_fits(self):
        small = ResourceVector(bram=10, dsp=10, lut=100, ff=100)
        huge = ResourceVector(bram=1000, dsp=10, lut=100, ff=100)
        assert small.fits(ZYNQ_XC7Z020)
        assert not huge.fits(ZYNQ_XC7Z020)

    def test_as_dict(self):
        d = ResourceVector(bram=1, dsp=2, lut=3, ff=4).as_dict()
        assert d == {"bram": 1, "dsp": 2, "lut": 3, "ff": 4}
