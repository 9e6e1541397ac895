"""Sim-fidelity search: seeded exhaustive agreement, determinism, budget."""

import pytest

from repro.api import Evaluator, simulate
from repro.opt import SearchSpace, optimize
from repro.opt.refine import candidate_seeds

FIXED = {"arrival": "deterministic", "arrival_rate_hz": 1.0, "n_requests": 30}


def exhaustive_sim(space, seed, metric):
    """Full-length simulate() of every candidate under the optimizer's own
    per-candidate seed streams — the reference the search must reproduce."""

    evaluator = Evaluator()
    out = {}
    for c in space.candidates():
        sim_seed, _ = candidate_seeds(seed, c.key)
        report = simulate(space.sim_scenario(c, seed=sim_seed), evaluator=evaluator)
        if metric == "p95_ms":
            out[c.key] = report.latency.percentiles[95] * 1e3
        else:
            raise AssertionError(metric)
    return out


class TestSmallSpaceIsExact:
    """When every survivor fits the budget at full length, halving is
    skipped and the sim answer equals the seeded exhaustive argmin."""

    def test_winner_matches_exhaustive_argmin(self):
        space = SearchSpace(
            axes={"board": ["PYNQ-Z2", "ZCU104"], "n_units": [16, 32]},
            fixed=FIXED,
        )
        report = optimize(space, "min:p95_ms", fidelity="sim", budget=6.0, seed=42)
        reference = exhaustive_sim(space, seed=42, metric="p95_ms")
        best_key = min(reference, key=lambda k: (reference[k], k))
        assert report.best is not None
        assert report.best["key"] == best_key
        assert report.best["objective"] == pytest.approx(reference[best_key])

    def test_pruned_candidates_are_infeasible_in_the_exhaustive_grid(self):
        space = SearchSpace(
            axes={"board": ["PYNQ-Z2", "ZCU104"], "n_units": [16, 32]},
            fixed=FIXED,
        )
        bound_ms = 400.0
        report = optimize(
            space, "board_price_usd", (f"p95_ms<={bound_ms}",),
            fidelity="sim", budget=6.0, seed=5,
        )
        reference = exhaustive_sim(space, seed=5, metric="p95_ms")
        pruned = [c for c in report.candidates if c.status == "pruned"]
        assert pruned, "expected the latency lower bound to prune something"
        for record in pruned:
            assert reference[record.key] > bound_ms


class TestDeterminism:
    def test_seeded_runs_are_bit_identical(self):
        space = SearchSpace(
            axes={"board": ["PYNQ-Z2", "ZCU104"], "n_units": [16, 32], "replicas": [1, 2]},
            fixed=FIXED,
        )
        a = optimize(space, "min:p95_ms", fidelity="sim", budget=4.0, seed=7)
        b = optimize(space, "min:p95_ms", fidelity="sim", budget=4.0, seed=7)
        assert a.to_json() == b.to_json()

    def test_candidate_seeds_are_stable_and_distinct(self):
        a = candidate_seeds(3, "n_units=16|board=PYNQ-Z2")
        assert a == candidate_seeds(3, "n_units=16|board=PYNQ-Z2")
        assert a != candidate_seeds(4, "n_units=16|board=PYNQ-Z2")
        assert a != candidate_seeds(3, "n_units=32|board=PYNQ-Z2")


class TestBudget:
    def test_spent_never_exceeds_budget(self):
        space = SearchSpace(
            axes={"board": ["PYNQ-Z2", "ZCU104"], "n_units": [16, 32], "replicas": [1, 2]},
            fixed=FIXED,
        )
        report = optimize(space, "min:p95_ms", fidelity="sim", budget=3.0, seed=1)
        assert report.budget_spent <= report.budget + 1e-9
        assert report.budget == 3.0
        # The trace accounts for every candidate.
        assert len(report.candidates) == space.size

    def test_default_budget_is_a_fifth_of_the_grid(self):
        space = SearchSpace(
            axes={"board": ["PYNQ-Z2", "ZCU104"], "n_units": [16, 32], "replicas": [1, 2]},
            fixed=FIXED,
        )
        report = optimize(space, "min:p95_ms", fidelity="sim", seed=1)
        assert report.budget == pytest.approx(0.2 * space.size)

    def test_halving_trace_records_rungs(self):
        space = SearchSpace(
            axes={"board": ["PYNQ-Z2", "ZCU104"], "n_units": [16, 32], "replicas": [1, 2]},
            fixed=FIXED,
        )
        report = optimize(space, "min:p95_ms", fidelity="sim", budget=4.0, seed=7)
        halved = [c for c in report.candidates if c.status == "halved"]
        assert halved, "budget 4.0 over 8 candidates must force halving"
        for record in halved:
            assert record.rungs
            assert "ranked" in record.reason
            assert record.cost > 0
        skipped = [c for c in report.candidates if c.status == "skipped"]
        assert skipped, "the rung-0 cohort cannot admit all 8 candidates"


class TestFleetAndFaults:
    def test_fleet_fidelity_end_to_end(self):
        space = SearchSpace(
            axes={"board": ["PYNQ-Z2", "ZCU104"]},
            fixed={"count": 2, "arrival_rate_hz": 2.0, "n_requests": 40, "slo_s": 1.0},
        )
        report = optimize(
            space, "min:p99_ms", ("rejected_fraction<=0.5",),
            fidelity="fleet", budget=2.0, seed=3,
        )
        assert report.best is not None
        assert report.best["metrics"]["rejected_fraction"] is not None

    @pytest.mark.parametrize(
        "axes,fixed,named",
        [
            ({"policy": ["fifo", "batched"]}, {}, "axis 'policy'"),
            ({"batch_size": [2, 8]}, {}, "axis 'batch_size'"),
            ({"n_units": [16]}, {"dma_channels": 2}, "fixed knob 'dma_channels'"),
        ],
    )
    def test_fleet_fidelity_rejects_knobs_the_fast_kernel_ignores(self, axes, fixed, named):
        # The fast fleet kernel models none of them: searching one would
        # rank identical fleets by per-candidate seed noise.
        space = SearchSpace(axes=axes, fixed={**fixed, "n_requests": 20})
        with pytest.raises(ValueError, match=named):
            optimize(space, "min:p99_ms", fidelity="fleet")

    @pytest.mark.parametrize(
        "fidelity,knob,value",
        [
            ("fleet", "pl_clock_hz", 50e6),
            ("fleet", "warmup_s", 1e6),
            ("fleet", "dma_channels", 1),  # even at the simulator's default
            ("sim", "count", 2),
            ("faults", "routing", "round_robin"),
        ],
    )
    def test_a_knob_the_fidelity_does_not_run_is_refused(self, fidelity, knob, value):
        # Screening prices the knob, so dropping it from the run would rank
        # one design by the simulation of another.
        fixed = {"arrival_rate_hz": 2.0, "n_requests": 40, "slo_s": 1.0, knob: value}
        if fidelity == "fleet":
            fixed["count"] = 2
        space = SearchSpace(axes={"n_units": [8, 16]}, fixed=fixed)
        with pytest.raises(ValueError, match=f"fixed knob '{knob}'.*fidelity={fidelity}"):
            optimize(space, "min:p99_ms", fidelity=fidelity)

    def test_fleet_fidelity_accepts_every_fleet_knob(self):
        # qformat sets the datapath fields; board and count the inventory.
        space = SearchSpace(
            axes={"qformat": ["16:8"], "board": ["PYNQ-Z2"], "replicas": [1, 2], "cells": [1]},
            fixed={"count": 2, "routing": "round_robin", "admission": "none",
                   "n_requests": 20},
        )
        report = optimize(space, "min:p99_ms", fidelity="fleet", budget=1.0, seed=3)
        assert report.best is not None

    def test_faults_fidelity_exposes_expected_slo_violation(self):
        space = SearchSpace(
            axes={"n_units": [16, 32]},
            fixed={**FIXED, "n_requests": 15, "slo_s": 1.0},
        )
        report = optimize(
            space, "min:expected_slo_violation", fidelity="faults", budget=2.0, seed=1,
        )
        assert report.best is not None
        assert report.best["metrics"]["expected_slo_violation"] is not None
