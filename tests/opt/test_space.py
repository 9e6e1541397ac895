"""SearchSpace: enumeration, validation, scenario builders."""

import pytest

from repro.fleet import FleetScenario
from repro.opt import Candidate, SearchSpace
from repro.opt.space import AXIS_ORDER
from repro.sim import SimScenario, simulate


class TestConstruction:
    def test_size_is_the_axis_product(self):
        space = SearchSpace(axes={"board": ["PYNQ-Z2", "ZCU104"], "n_units": [8, 16, 32]})
        assert space.size == 6
        assert len(space.candidates()) == 6

    def test_axes_are_reordered_canonically(self):
        space = SearchSpace(axes={"board": ["PYNQ-Z2"], "depth": [20, 56], "n_units": [16]})
        assert space.axis_names == ("depth", "n_units", "board")
        assert [AXIS_ORDER.index(n) for n in space.axis_names] == sorted(
            AXIS_ORDER.index(n) for n in space.axis_names
        )

    def test_unknown_axis_is_named(self):
        with pytest.raises(ValueError, match="unknown axis 'clock'"):
            SearchSpace(axes={"clock": [100]})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="axis 'depth' has no values"):
            SearchSpace(axes={"depth": []})

    def test_duplicate_axis_value_rejected(self):
        with pytest.raises(ValueError, match="repeats value"):
            SearchSpace(axes={"n_units": [16, 16]})

    def test_unknown_fixed_knob_is_named(self):
        with pytest.raises(ValueError, match="unknown fixed knob 'turbo'"):
            SearchSpace(axes={"n_units": [16]}, fixed={"turbo": True})

    def test_design_axes_cannot_be_fixed_knobs(self):
        # Design knobs are axes-only; the fixed dict is for traffic/serving
        # knobs, so fixing n_units is rejected as an unknown fixed knob.
        with pytest.raises(ValueError, match="unknown fixed knob 'n_units'"):
            SearchSpace(axes={"board": ["PYNQ-Z2"]}, fixed={"n_units": 8})

    def test_unknown_board_fails_at_construction(self):
        with pytest.raises(ValueError):
            SearchSpace(axes={"board": ["DE10-Nano"]})

    def test_qformat_accepts_strings_and_pairs(self):
        space = SearchSpace(axes={"qformat": ["16:8", (32, 20)]})
        keys = [c.key for c in space.candidates()]
        assert keys == ["qformat=16:8", "qformat=32:20"]

    def test_malformed_qformat_string_is_named(self):
        with pytest.raises(ValueError, match="bad Q-format '16-8'; expected WL:FB"):
            SearchSpace(axes={"qformat": ["16-8"]})


class TestEnumeration:
    def test_candidate_keys_are_stable_and_ordered(self):
        space = SearchSpace(axes={"board": ["PYNQ-Z2", "ZCU104"], "n_units": [16, 32]})
        keys = [c.key for c in space.candidates()]
        assert keys == [
            "n_units=16|board=PYNQ-Z2",
            "n_units=16|board=ZCU104",
            "n_units=32|board=PYNQ-Z2",
            "n_units=32|board=ZCU104",
        ]
        # Enumeration is deterministic call to call.
        assert [c.key for c in space.candidates()] == keys

    def test_board_names_canonicalised_into_keys(self):
        space = SearchSpace(axes={"board": ["pynq-z2"]})
        assert space.candidates()[0].key == "board=PYNQ-Z2"


class TestBuilders:
    def test_scenario_applies_design_axes(self):
        space = SearchSpace(axes={"qformat": ["16:8"], "board": ["ZCU104"], "n_units": [32]})
        s = space.scenario(space.candidates()[0])
        assert (s.word_length, s.fraction_bits, s.board, s.n_units) == (16, 8, "ZCU104", 32)

    def test_sim_scenario_fraction_scales_requests(self):
        space = SearchSpace(
            axes={"n_units": [16]},
            fixed={"arrival": "deterministic", "arrival_rate_hz": 2.0, "n_requests": 40},
        )
        c = space.candidates()[0]
        assert space.sim_scenario(c, fraction=1.0).n_requests == 40
        assert space.sim_scenario(c, fraction=0.25).n_requests == 10
        assert space.sim_scenario(c, seed=7).seed == 7

    def test_fraction_scales_both_stop_conditions(self):
        # A rung of a run bounded by both requests and time is shorter on
        # both: 10 req/s for 10 s offers 101 requests, a quarter rung 26.
        space = SearchSpace(
            axes={"n_units": [16]},
            fixed={"arrival": "deterministic", "arrival_rate_hz": 10,
                   "n_requests": 1000, "duration_s": 10},
        )
        c = space.candidates()[0]
        for build in (space.sim_scenario, space.fleet_scenario):
            rung = build(c, fraction=0.25)
            assert (rung.n_requests, rung.duration_s) == (250, 2.5)
            full = build(c, fraction=1.0)
            assert (full.n_requests, full.duration_s) == (1000, 10)
        offered = [
            simulate(space.sim_scenario(c, fraction=f)).requests["offered"]
            for f in (0.25, 0.5, 1.0)
        ]
        assert offered == [26, 51, 101]

    def test_sim_scenario_defaults_requests_when_unbounded(self):
        space = SearchSpace(axes={"n_units": [16]})
        c = space.candidates()[0]
        assert space.sim_scenario(c).n_requests == SimScenario.DEFAULT_REQUESTS == 100
        assert space.fleet_scenario(c).n_requests == FleetScenario.DEFAULT_REQUESTS == 1000
        assert space.sim_scenario(c, fraction=0.25).n_requests == 25

    def test_fleet_scenario_uses_count_and_board_axis(self):
        space = SearchSpace(
            axes={"board": ["ZCU104"]},
            fixed={"count": 3, "n_requests": 60},
        )
        fs = space.fleet_scenario(space.candidates()[0])
        assert fs.boards[0].board == "ZCU104"
        assert fs.boards[0].count == 3
        assert fs.n_requests == 60

    def test_event_only_axes_still_validate_for_sim_searches(self):
        # The eager fleet check leaves out the knobs a fleet does not have,
        # so a sim search over them constructs.
        space = SearchSpace(
            axes={"policy": ["fifo", "batched"], "batch_size": [2, 8]},
            fixed={"dma_channels": 2},
        )
        assert space.sim_scenario(space.candidates()[-1]).policy == "batched"
        assert space.unmodelled(SimScenario) == []
        assert space.unmodelled(FleetScenario) == [
            ("axis", "policy"), ("axis", "batch_size"), ("fixed knob", "dma_channels"),
        ]

    def test_fleet_scenario_defaults_to_reference_board(self):
        space = SearchSpace(axes={"n_units": [16]})
        fs = space.fleet_scenario(space.candidates()[0])
        assert fs.boards[0].board == "PYNQ-Z2"

    def test_as_dict_round_trips_qformat_strings(self):
        space = SearchSpace(axes={"qformat": ["16:8"], "n_units": [16]})
        d = space.as_dict()
        assert d["axes"]["qformat"] == ["16:8"]
        assert d["size"] == 1

    def test_candidate_get_and_as_dict(self):
        c = Candidate(values=(("n_units", 16), ("qformat", (16, 8))))
        assert c.get("n_units") == 16
        assert c.get("board", "none") == "none"
        assert c.as_dict() == {"n_units": 16, "qformat": "16:8"}
