"""Tests for the execution-time model (Table 5)."""

from __future__ import annotations

import pytest

from repro.core import (
    PAPER_OFFLOAD_TARGETS,
    TABLE5_MODELS,
    ExecutionTimeModel,
    layer_geometry,
    variant_spec,
)
from repro.core.execution_model import pl_layer_seconds_kernel


#: Published Table 5 values used as calibration anchors:
#: (model, N) -> (total w/o PL, target w/o PL, target w/ PL, overall speedup).
PAPER_TABLE5 = {
    ("ResNet", 20): (0.54, None, None, None),
    ("ResNet", 32): (0.89, None, None, None),
    ("ResNet", 44): (1.24, None, None, None),
    ("ResNet", 56): (1.58, None, None, None),
    ("rODENet-1", 20): (0.57, 0.44, 0.15, 1.99),
    ("rODENet-1", 56): (1.67, 1.54, 0.55, 2.45),
    ("rODENet-2", 20): (0.52, 0.33, 0.11, 1.75),
    ("rODENet-2", 56): (1.52, 1.33, 0.44, 2.40),
    ("rODENet-3", 20): (0.54, 0.35, 0.10, 1.85),
    ("rODENet-3", 32): (0.88, 0.69, 0.20, 2.26),
    ("rODENet-3", 44): (1.23, 1.04, 0.30, 2.50),
    ("rODENet-3", 56): (1.57, 1.38, 0.40, 2.66),
    ("ODENet-3", 56): (1.60, 0.46, 0.13, 1.26),
    ("Hybrid-3", 20): (0.53, 0.12, 0.03, 1.19),
    ("Hybrid-3", 56): (1.56, 0.46, 0.13, 1.27),
}


@pytest.fixture(scope="module")
def model():
    return ExecutionTimeModel()


class TestAgainstPaperTable5:
    @pytest.mark.parametrize("key", sorted(PAPER_TABLE5, key=str))
    def test_total_without_pl(self, model, key):
        name, depth = key
        expected = PAPER_TABLE5[key][0]
        report = model.report(name, depth)
        assert report.total_without_pl == pytest.approx(expected, rel=0.08)

    @pytest.mark.parametrize(
        "key", [k for k, v in PAPER_TABLE5.items() if v[1] is not None]
    )
    def test_target_times_and_speedups(self, model, key):
        name, depth = key
        _, target_sw, target_pl, speedup = PAPER_TABLE5[key]
        report = model.report(name, depth)
        assert sum(report.target_without_pl) == pytest.approx(target_sw, rel=0.10)
        assert sum(report.target_with_pl) == pytest.approx(target_pl, rel=0.12, abs=0.006)
        assert report.overall_speedup == pytest.approx(speedup, rel=0.08)

    def test_headline_speedup_266(self, model):
        """The abstract's headline: rODENet-3-56 is 2.66x faster with the PL."""

        report = model.report("rODENet-3", 56)
        assert report.overall_speedup == pytest.approx(2.66, abs=0.05)

    def test_speedup_vs_resnet_baseline(self, model):
        """Section 4.4: 2.67x faster than a software execution of ResNet-56."""

        assert model.speedup_vs_resnet("rODENet-3", 56) == pytest.approx(2.67, rel=0.05)

    def test_ratio_of_target_ranges(self, model):
        """rODENet-3 target share 64–88 %; ODENet-3/Hybrid-3 share 21–30 %."""

        for depth, (low, high) in [(20, (60, 70)), (56, (84, 92))]:
            ratio = model.report("rODENet-3", depth).target_ratio_percent[0]
            assert low < ratio < high
        for name in ("ODENet-3", "Hybrid-3"):
            for depth in (20, 56):
                ratio = model.report(name, depth).target_ratio_percent[0]
                assert 18 < ratio < 33


class TestQualitativeShape:
    def test_speedup_increases_with_depth_for_rodenet(self, model):
        for name in ("rODENet-1", "rODENet-2", "rODENet-3", "rODENet-1+2"):
            speedups = [model.report(name, d).overall_speedup for d in (20, 32, 44, 56)]
            assert all(a < b for a, b in zip(speedups, speedups[1:])), name

    def test_rodenet_speedups_exceed_odenet_and_hybrid(self, model):
        """The rODENet variants benefit most from the offload (Section 4.4)."""

        for depth in (20, 56):
            rodenet = model.report("rODENet-3", depth).overall_speedup
            odenet = model.report("ODENet-3", depth).overall_speedup
            hybrid = model.report("Hybrid-3", depth).overall_speedup
            assert rodenet > odenet
            assert rodenet > hybrid

    def test_hybrid_speedup_at_least_odenet(self, model):
        """"the overall speedup ... for Hybrid-3-N is equal to or higher than
        that of ODENet-3-N in all the sizes"."""

        for depth in (20, 32, 44, 56):
            hybrid = model.report("Hybrid-3", depth).overall_speedup
            odenet = model.report("ODENet-3", depth).overall_speedup
            assert hybrid >= odenet - 1e-9

    def test_resnet_has_no_offload_and_unit_speedup(self, model):
        report = model.report("ResNet", 32)
        assert report.offload_targets == ()
        assert report.overall_speedup == 1.0
        assert report.total_with_pl == report.total_without_pl

    def test_total_time_grows_with_depth(self, model):
        for name in TABLE5_MODELS:
            totals = [model.report(name, d).total_without_pl for d in (20, 32, 44, 56)]
            assert all(a < b for a, b in zip(totals, totals[1:])), name


class TestModelMechanics:
    def test_report_respects_custom_targets(self, model):
        report = model.report("ODENet", 56, offload_targets=("layer1", "layer2_2", "layer3_2"))
        assert len(report.target_with_pl) == 3
        assert report.overall_speedup > model.report("ODENet-3", 56).overall_speedup

    def test_as_dict_keys(self, model):
        d = model.report("rODENet-2", 32).as_dict()
        assert {"model", "N", "offload_target", "total_wo_pl_s", "overall_speedup"} <= set(d)

    def test_parallelism_sweep_monotone(self, model):
        speedups = [
            ExecutionTimeModel(n_units=n).report("rODENet-3", 56).overall_speedup
            for n in (1, 4, 16)
        ]
        assert speedups[0] < speedups[1] < speedups[2]

    def test_transfer_can_be_excluded(self):
        model = ExecutionTimeModel()
        geom = layer_geometry("layer3_2").fpga_geometry()
        without = pl_layer_seconds_kernel(geom, 16, model.board.pl_clock_hz, 0.0)
        assert without < model.pl_layer_seconds("layer3_2")

    def test_paper_offload_targets_mapping(self):
        assert PAPER_OFFLOAD_TARGETS["rODENet-1+2"] == ("layer1", "layer2_2")
        assert PAPER_OFFLOAD_TARGETS["ODENet-3"] == ("layer3_2",)
        assert PAPER_OFFLOAD_TARGETS["ResNet"] == ()
