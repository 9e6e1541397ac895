"""Tests of arrival processes, request mixes and service-plan compilation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Evaluator, Scenario
from repro.sim import arrival_times, build_service_plan, sample_mix
from repro.sim.workload import PlExecution, PsSegment


class TestArrivals:
    def test_deterministic_spacing(self):
        times = arrival_times("deterministic", rate_hz=4.0, n_requests=5)
        assert times == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_deterministic_duration_bound(self):
        times = arrival_times("deterministic", rate_hz=2.0, duration_s=1.0)
        assert times == [0.0, 0.5, 1.0]

    def test_poisson_is_reproducible(self):
        a = arrival_times("poisson", rate_hz=3.0, n_requests=50, rng=np.random.default_rng(7))
        b = arrival_times("poisson", rate_hz=3.0, n_requests=50, rng=np.random.default_rng(7))
        assert a == b
        assert len(a) == 50
        assert all(t2 > t1 for t1, t2 in zip(a, a[1:]))

    def test_poisson_mean_rate(self):
        times = arrival_times(
            "poisson", rate_hz=10.0, n_requests=4000, rng=np.random.default_rng(0)
        )
        assert times[-1] / len(times) == pytest.approx(0.1, rel=0.1)

    def test_poisson_duration_only(self):
        times = arrival_times(
            "poisson", rate_hz=5.0, duration_s=20.0, rng=np.random.default_rng(3)
        )
        assert times and times[-1] <= 20.0
        assert len(times) == pytest.approx(100, rel=0.4)

    def test_trace_replay_and_truncation(self):
        times = arrival_times("trace", trace=[0.0, 0.5, 2.0, 9.0], duration_s=3.0)
        assert times == [0.0, 0.5, 2.0]

    def test_trace_must_be_sorted(self):
        with pytest.raises(ValueError, match="sorted"):
            arrival_times("trace", trace=[1.0, 0.5])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown arrival process"):
            arrival_times("bursty", rate_hz=1.0, n_requests=1)

    def test_rate_required(self):
        with pytest.raises(ValueError, match="positive rate"):
            arrival_times("poisson", rate_hz=0.0, n_requests=1)

    def test_bound_required(self):
        with pytest.raises(ValueError, match="bound"):
            arrival_times("poisson", rate_hz=1.0)


class TestMix:
    def test_single_entry_is_constant(self):
        s = Scenario()
        assert sample_mix([(s, 1.0)], 5) == [s] * 5

    def test_weighted_sampling_reproducible(self):
        a = Scenario(model="rODENet-3", depth=56)
        b = Scenario(model="rODENet-1", depth=20)
        rng1 = np.random.default_rng(11)
        rng2 = np.random.default_rng(11)
        picks1 = sample_mix([(a, 3.0), (b, 1.0)], 200, rng=rng1)
        picks2 = sample_mix([(a, 3.0), (b, 1.0)], 200, rng=rng2)
        assert picks1 == picks2
        share = sum(1 for s in picks1 if s == a) / 200
        assert share == pytest.approx(0.75, abs=0.1)

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError, match="weights"):
            sample_mix([(Scenario(), -1.0)], 3)
        with pytest.raises(ValueError, match="at least one"):
            sample_mix([], 3)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("entries", [1, 2])
    def test_non_finite_weights_rejected_like_negative_ones(self, weight, entries):
        # A single-entry mix never samples, so it must be checked too.
        mix = [(Scenario(), weight), (Scenario(model="ResNet", depth=20), 1.0)][:entries]
        with pytest.raises(ValueError, match="mix weights must be finite and non-negative"):
            sample_mix(mix, 3)


class TestServicePlan:
    def test_plan_total_matches_analytic_latency(self):
        ev = Evaluator()
        scenario = Scenario(model="rODENet-3", depth=56)
        plan = build_service_plan(scenario, evaluator=ev)
        analytic = ev.evaluate(scenario).timing["total_w_pl_s"]
        assert plan.total_seconds == pytest.approx(analytic, rel=1e-12)

    def test_offloaded_layer_becomes_pl_executions(self):
        ev = Evaluator()
        scenario = Scenario(model="rODENet-3", depth=56)
        plan = build_service_plan(scenario, evaluator=ev)
        report = ev.execution_report(scenario)
        (entry,) = [e for e in report.layers if e.layer == "layer3_2"]
        pl = [s for s in plan.segments if isinstance(s, PlExecution)]
        assert len(pl) == entry.executions
        assert all(s.layer == "layer3_2" for s in pl)
        # Each invocation decomposes exactly into DMA in + compute + DMA out.
        assert pl[0].seconds == pytest.approx(entry.pl_seconds_per_execution, rel=1e-12)
        assert pl[0].words_in > 0 and pl[0].words_out > 0
        assert pl[0].compute_seconds > pl[0].transfer_in_seconds

    def test_software_model_has_no_pl_segments(self):
        plan = build_service_plan(Scenario(model="ResNet", depth=20))
        assert not any(isinstance(s, PlExecution) for s in plan.segments)
        assert all(isinstance(s, PsSegment) for s in plan.segments)
        assert plan.segments[-1].layer == "overhead"

    def test_solver_stages_multiply_executions(self):
        euler = build_service_plan(Scenario(model="rODENet-3", depth=20, solver="euler"))
        rk4 = build_service_plan(Scenario(model="rODENet-3", depth=20, solver="rk4"))
        def pl_count(plan):
            return sum(isinstance(s, PlExecution) for s in plan.segments)

        assert pl_count(rk4) == 4 * pl_count(euler)
