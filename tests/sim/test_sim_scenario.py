"""Tests of the :class:`SimScenario` value object and its API integration."""

from __future__ import annotations

import pytest

from repro.api import Scenario
from repro.sim import SimScenario


class TestValidation:
    def test_defaults_are_valid(self):
        s = SimScenario()
        assert s.arrival == "poisson" and s.policy == "fifo"
        assert s.model == "rODENet-3"  # inherits the Scenario knobs

    def test_inherited_scenario_validation_still_applies(self):
        with pytest.raises(ValueError, match="unknown model"):
            SimScenario(model="nope")

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(arrival="bursty"), "unknown arrival process"),
            (dict(arrival="trace"), "trace"),
            (dict(arrival_rate_hz=0.0), "arrival_rate_hz"),
            (dict(n_requests=0), "n_requests"),
            (dict(duration_s=-1.0), "duration_s"),
            (dict(replicas=-1), "replicas"),
            (dict(policy="lifo"), "unknown policy"),
            (dict(batch_size=0), "batch_size"),
            (dict(ps_cores=-1), "ps_cores"),
            (dict(dma_channels=0), "dma_channels"),
            (dict(warmup_s=-0.5), "warmup_s"),
        ],
    )
    def test_bad_knobs_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SimScenario(**kwargs)

    def test_trace_normalised_to_tuple(self):
        s = SimScenario(arrival="trace", trace=[0.0, 1.0], n_requests=None)
        assert s.trace == (0.0, 1.0)
        assert hash(s)  # stays hashable

    def test_replicas_zero_means_auto(self):
        assert SimScenario(replicas=0).replicas == 0

    def test_request_bound_stays_unresolved_on_the_instance(self):
        # The 100-request default for unbounded rate-driven runs is applied
        # by simulate(), not baked into the frozen instance — so adding a
        # duration via replace() unbounds the count instead of keeping a cap.
        assert SimScenario().n_requests is None
        assert SimScenario().replace(duration_s=10.0).n_requests is None
        trace = tuple(float(i) for i in range(150))
        assert SimScenario(arrival="trace", trace=trace).n_requests is None

    def test_trace_with_rate_driven_arrival_rejected(self):
        with pytest.raises(ValueError, match="arrival='trace'"):
            SimScenario(trace=(0.0, 0.5))
        with pytest.raises(ValueError, match="at least one"):
            SimScenario(arrival="trace", trace=())


class TestViews:
    def test_design_point_strips_sim_knobs(self):
        s = SimScenario(model="rODENet-1", depth=20, n_units=8, replicas=3)
        base = s.design_point
        assert type(base) is Scenario
        assert base == Scenario(model="rODENet-1", depth=20, n_units=8)

    def test_as_dict_round_trips(self):
        s = SimScenario(
            model="rODENet-3",
            depth=20,
            arrival="trace",
            trace=(0.0, 0.5),
            n_requests=None,
            policy="batched",
            batch_size=2,
        )
        data = s.as_dict()
        assert data["policy"] == "batched"
        assert data["trace"] == [0.0, 0.5]
        assert SimScenario.from_dict(data) == s

    def test_replace_revalidates(self):
        s = SimScenario()
        assert s.replace(policy="round_robin").policy == "round_robin"
        with pytest.raises(ValueError, match="unknown policy"):
            s.replace(policy="nope")

    def test_sim_knobs_change_the_hash(self):
        assert SimScenario(seed=0) != SimScenario(seed=1)
        assert hash(SimScenario(seed=0)) != hash(SimScenario(seed=1))
