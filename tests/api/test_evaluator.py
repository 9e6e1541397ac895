"""Evaluator facade: correctness against the hand-assembled models, memoization."""

from __future__ import annotations

import json

import pytest

from repro.api import Evaluator, Scenario
from repro.core import ExecutionTimeModel, OffloadPlanner
from repro.core.training_model import TrainingTimeModel
from repro.fpga.power import PowerModel


@pytest.fixture(scope="module")
def evaluator() -> Evaluator:
    return Evaluator()


@pytest.fixture(scope="module")
def headline(evaluator):
    """The paper's headline design point: rODENet-3-56, conv_x16, Q20."""

    return evaluator.evaluate(Scenario())


class TestAgainstHandAssembledModels:
    def test_timing_matches_execution_model(self, headline):
        report = ExecutionTimeModel(n_units=16).report("rODENet-3", 56)
        assert headline.timing["total_wo_pl_s"] == report.total_without_pl
        assert headline.timing["total_w_pl_s"] == report.total_with_pl
        assert headline.timing["overall_speedup"] == report.overall_speedup

    def test_resources_match_offload_planner(self, headline):
        decision = OffloadPlanner(n_units=16).plan("rODENet-3", 56)
        assert headline.resource_vector() == decision.resources.as_dict()
        assert headline.resources["targets"] == list(decision.targets)
        assert headline.resources["fits_device"] is decision.fits_device
        assert headline.resources["meets_timing"] is decision.meets_timing

    def test_energy_matches_power_model(self, headline):
        execution = ExecutionTimeModel(n_units=16)
        decision = OffloadPlanner(n_units=16, execution_model=execution).plan("rODENet-3", 56)
        comparison = PowerModel().compare_report(
            execution.report("rODENet-3", 56), decision.resources
        )
        assert headline.energy == comparison

    def test_training_matches_training_model(self, headline):
        model = TrainingTimeModel()
        expected = model.report("rODENet-3", 56).as_dict()
        expected.update(model.epoch_table(("rODENet-3",), 56)["rODENet-3"])
        assert headline.training == expected

    def test_speedup_vs_resnet(self, headline):
        expected = ExecutionTimeModel(n_units=16).speedup_vs_resnet("rODENet-3", 56)
        assert headline.timing["speedup_vs_resnet"] == pytest.approx(expected)
        assert headline.timing["speedup_vs_resnet"] == pytest.approx(2.745, abs=0.01)


class TestScenarioKnobs:
    def test_n_units_changes_timing_and_resources(self, evaluator):
        r8 = evaluator.evaluate(Scenario(n_units=8))
        r16 = evaluator.evaluate(Scenario(n_units=16))
        assert r8.timing["overall_speedup"] < r16.timing["overall_speedup"]
        assert r8.resources["dsp"] < r16.resources["dsp"]

    def test_narrow_qformat_shrinks_bram_and_param_bytes(self, evaluator):
        q20 = evaluator.evaluate(Scenario())
        q16 = evaluator.evaluate(Scenario(word_length=16, fraction_bits=8))
        assert q16.resources["bram"] < q20.resources["bram"]
        # Parameter storage follows the scenario's word length.
        assert q16.parameters["param_bytes"] == q20.parameters["param_bytes"] // 2
        # Timing is unaffected: the cycle model is word-length independent.
        assert q16.timing["total_w_pl_s"] == q20.timing["total_w_pl_s"]

    def test_rk4_quadruples_odeblock_work(self, evaluator):
        euler = evaluator.evaluate(Scenario())
        rk4 = evaluator.evaluate(Scenario(solver="rk4"))
        assert rk4.timing["solver_stages"] == 4
        # The offload target (layer3_2, an ODEBlock) costs exactly 4x.
        assert rk4.timing["target_wo_pl_s"][0] == pytest.approx(
            4.0 * euler.timing["target_wo_pl_s"][0]
        )
        # Fixed layers (conv1, fc, ...) do not scale, so the total is < 4x.
        assert rk4.timing["total_wo_pl_s"] < 4.0 * euler.timing["total_wo_pl_s"]

    def test_offload_decision_consistent_with_evaluate(self, evaluator):
        # The decision's expected speedup must agree with the result's timing
        # section even when the solver scales the ODEBlock work.
        scenario = Scenario(solver="rk4")
        decision = evaluator.offload_decision(scenario)
        result = evaluator.evaluate(scenario)
        assert decision.expected_speedup == result.timing["overall_speedup"]

    def test_slower_pl_clock_reduces_speedup(self, evaluator):
        fast = evaluator.evaluate(Scenario())
        slow = evaluator.evaluate(Scenario(pl_clock_hz=50e6))
        assert slow.timing["overall_speedup"] < fast.timing["overall_speedup"]

    def test_resnet_has_no_offload(self, evaluator):
        result = evaluator.evaluate(Scenario(model="ResNet", depth=20))
        assert result.resources["targets"] == []
        assert result.timing["overall_speedup"] == 1.0
        assert result.energy["energy_ratio"] < 1.0  # idle PL burns static power


class TestMemoization:
    def test_same_scenario_returns_cached_result(self):
        ev = Evaluator()
        first = ev.evaluate(Scenario())
        second = ev.evaluate(Scenario())  # a distinct but equal Scenario object
        assert second is first

    def test_execution_models_shared_across_compatible_scenarios(self):
        ev = Evaluator()
        resnet = Scenario(model="ResNet", depth=20)
        rodenet = Scenario(model="rODENet-3", depth=56)
        ev.evaluate(resnet)
        ev.evaluate(rodenet)
        # Same (board, clock, n_units): one model instance serves both.
        assert ev._execution_model(resnet) is ev._execution_model(rodenet)
        assert ev._execution_model(resnet) is not ev._execution_model(resnet.replace(n_units=8))


class TestResultViews:
    def test_as_dict_sections(self, headline):
        data = headline.as_dict()
        assert set(data) == {"scenario", "parameters", "resources", "timing", "energy", "training"}
        assert data["scenario"]["model"] == "rODENet-3"

    def test_to_json_round_trips(self, headline):
        data = json.loads(headline.to_json())
        assert data["timing"]["overall_speedup"] == pytest.approx(2.66, abs=0.01)

    def test_csv_row_aligns_with_header(self, headline):
        header, row = (line.split(",") for line in headline.to_csv().split("\n"))
        assert len(header) == len(row)
        assert "bram" in header and "overall_speedup" in header and "energy_ratio" in header

    def test_sections_are_read_only_and_as_dict_copies(self, headline):
        with pytest.raises(TypeError):
            headline.timing["overall_speedup"] = 0.0
        data = headline.as_dict()
        data["resources"]["targets"].append("layer1")
        assert headline.resources["targets"] == ["layer3_2"]

    def test_render_contains_every_section(self, headline):
        text = headline.render()
        for section in ("scenario", "parameters", "resources", "timing", "energy", "training"):
            assert f"[{section}]" in text

    def test_table5_records_match_analysis_module(self, evaluator):
        from repro.analysis import table5_records

        records = table5_records(depths=(56,), n_units=8)
        for rec in records:
            report = evaluator.execution_report(Scenario(model=rec["model"], depth=56, n_units=8))
            assert rec["total_w_pl_s"] == round(report.total_with_pl, 3)
            assert rec["overall_speedup"] == round(report.overall_speedup, 2)
            assert rec["offload_target"] == report.as_dict()["offload_target"]
