"""Tests for the resource-utilisation model (Table 3)."""

from __future__ import annotations

import pytest

from repro.fpga import (
    PUBLISHED_TABLE3,
    ZYNQ_XC7Z020,
    ResourceEstimator,
    published_table3,
)


class TestPublishedTable3:
    def test_all_twelve_configurations_present(self):
        assert len(PUBLISHED_TABLE3) == 12
        layers = {key[0] for key in PUBLISHED_TABLE3}
        assert layers == {"layer1", "layer2_2", "layer3_2"}

    def test_layer3_2_bram_is_100_percent(self):
        table = published_table3()
        for n in (1, 4, 8, 16):
            assert table[("layer3_2", n)]["bram_pct"] == pytest.approx(100.0)

    def test_layer1_layer2_2_bram_is_40_percent(self):
        table = published_table3()
        for layer in ("layer1", "layer2_2"):
            for n in (1, 4, 8):
                assert table[(layer, n)]["bram_pct"] == pytest.approx(40.0)

    def test_dsp_percentages(self):
        table = published_table3()
        assert table[("layer1", 16)]["dsp_pct"] == pytest.approx(30.91, abs=0.01)
        assert table[("layer2_2", 1)]["dsp_pct"] == pytest.approx(3.63, abs=0.01)

    def test_lut_percentages_match_paper(self):
        table = published_table3()
        assert table[("layer3_2", 16)]["lut_pct"] == pytest.approx(23.91, abs=0.02)
        assert table[("layer1", 16)]["lut_pct"] == pytest.approx(16.91, abs=0.02)


class TestDspModel:
    """The paper's DSP counts follow 4 + 4*n exactly."""

    @pytest.mark.parametrize("n_units,expected", [(1, 8), (4, 20), (8, 36), (16, 68)])
    def test_dsp_exact(self, n_units, expected):
        estimator = ResourceEstimator()
        assert estimator.dsp_count(n_units) == expected
        for layer in ("layer1", "layer2_2", "layer3_2"):
            assert PUBLISHED_TABLE3[(layer, n_units)].dsp == expected


class TestAnalyticalEstimates:
    def test_lut_ff_within_tolerance_of_published(self):
        estimator = ResourceEstimator()
        for (layer, n_units), published in PUBLISHED_TABLE3.items():
            est = estimator.estimate(layer, n_units=n_units).resources
            assert est.lut == pytest.approx(published.lut, rel=0.45), (layer, n_units)
            assert est.ff == pytest.approx(published.ff, rel=0.6), (layer, n_units)

    def test_layer3_2_has_largest_bram_estimate(self):
        estimator = ResourceEstimator()
        brams = {
            layer: estimator.estimate(layer, 16).resources.bram
            for layer in ("layer1", "layer2_2", "layer3_2")
        }
        assert brams["layer3_2"] == max(brams.values())

    def test_single_blocks_fit_device(self):
        """Section 3.2: each of the three layers fits individually."""

        estimator = ResourceEstimator()
        for name in ("layer1", "layer2_2", "layer3_2"):
            assert estimator.estimate(name, n_units=16).fits(ZYNQ_XC7Z020)

    def test_layer1_plus_layer2_2_combination_fits(self):
        """Section 3.2 case 3: layer1 and layer2_2 both on the PL."""

        estimator = ResourceEstimator()
        combo = estimator.estimate_combination(["layer1", "layer2_2"], n_units=16)
        assert combo.fits(ZYNQ_XC7Z020)

    def test_all_three_layers_do_not_fit_together(self):
        """The paper never places all three blocks at once — BRAM runs out."""

        estimator = ResourceEstimator()
        combo = estimator.estimate_combination(["layer1", "layer2_2", "layer3_2"], n_units=16)
        assert not combo.fits(ZYNQ_XC7Z020)

    def test_estimate_reports_bram_plan(self):
        est = ResourceEstimator().estimate("layer3_2", 16)
        assert est.bram_plan.total_tiles == est.resources.bram
        assert est.block == "layer3_2"

    def test_estimates_monotone_in_units(self):
        estimator = ResourceEstimator()
        for layer in ("layer1", "layer2_2", "layer3_2"):
            previous = None
            for n in (1, 4, 8, 16):
                est = estimator.estimate(layer, n_units=n).resources
                if previous is not None:
                    assert est.dsp > previous.dsp
                    assert est.lut > previous.lut
                previous = est

    def test_utilization_accessor(self):
        est = ResourceEstimator().estimate("layer1", 16)
        util = est.resources.utilization(ZYNQ_XC7Z020)
        assert 0 < util["dsp"] < 100
        assert est.fits(ZYNQ_XC7Z020)
