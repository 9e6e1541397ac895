"""Sim-fidelity search: seeded exhaustive agreement, determinism, budget."""

import pytest

from repro.api import Evaluator, simulate
from repro.opt import SearchSpace, optimize
from repro.opt.refine import candidate_seeds
from repro.platform import list_boards

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


def explore_space():
    """The space of the explore workload's optimize call: 16 candidates, of
    which the latency screen leaves 4 (every n_units=32 design on the two
    UltraScale+ boards)."""

    return SearchSpace(
        axes={"n_units": [16, 32], "board": list_boards(), "replicas": [1, 2]},
        fixed={"arrival": "poisson", "arrival_rate_hz": 0.5, "n_requests": 100},
    )


def explore_search(budget=None, seed=1):
    return optimize(
        explore_space(), "min:energy_per_request_J", ("p95_ms<=250",),
        fidelity="sim", budget=budget, seed=seed,
    )


class TestStageTwo:
    """Stage 2 is one successive-halving loop that spends the whole budget."""

    def test_default_budget_admits_every_survivor_to_rung_0(self):
        report = explore_search()
        assert report.budget == pytest.approx(3.2)
        survivors = [c for c in report.candidates if c.status != "pruned"]
        assert len(survivors) == 4
        # 4 x 0.25 + 2 x 0.5 + 1 x 1.0 = 3.0 units in 4 + 2 + 1 runs.
        assert all(c.rungs and c.rungs[0]["fraction"] == 0.25 for c in survivors)
        assert report.budget_spent == pytest.approx(3.0)
        assert report.evaluations == 7
        assert report.best["key"] == "n_units=32|board=Ultra96-V2|replicas=2"

    def test_a_cohort_of_one_is_not_halved(self):
        # Budget 1.9 fits the three-rung schedule of one candidate (1.75
        # units) but not of two: the one admitted survivor runs once, at
        # full length.
        report = explore_search(1.9)
        assert report.evaluations == 1
        assert report.budget_spent == pytest.approx(1.0)
        (evaluated,) = [c for c in report.candidates if c.cost > 0]
        assert [rung["fraction"] for rung in evaluated.rungs] == [1.0]
        assert evaluated.stage == "final"

    def test_no_winner_note_counts_unevaluated_survivors(self):
        # Budget 1.5 evaluates one of four survivors, which is infeasible:
        # the other three may be feasible, so the note does not claim that
        # no candidate is.
        report = explore_search(1.5)
        assert report.best is None
        assert report.note == (
            "no evaluated candidate satisfies the constraints at fidelity=sim "
            "(12 pruned at screening, 1 infeasible when evaluated, "
            "3 not evaluated within the budget)"
        )

    @pytest.mark.parametrize("budget", [1.0, 2.0, 4.0])
    def test_every_record_ends_in_one_of_three_stages(self, budget):
        # 36 candidates, 2 req/s: at budgets 2 and 4 a full-length run used
        # to be left over after halving.
        space = SearchSpace(
            axes={"n_units": [8, 16, 32], "board": list_boards(), "replicas": [1, 2, 3]},
            fixed={"arrival": "poisson", "arrival_rate_hz": 2.0, "n_requests": 40},
        )
        report = optimize(space, "min:p95_ms", fidelity="sim", budget=budget, seed=4)
        assert {c.stage for c in report.candidates} <= {"screen", "halving", "final"}
        assert report.budget_spent <= budget

    @pytest.mark.parametrize(
        "budget, schedule",
        [
            (None, "halving"),
            (1.0, "the full-length run"),
            (1.5, "the full-length run"),
            (2.0, "halving"),
            (3.0, "halving"),
            (8.0, "the full-length run"),
        ],
    )
    def test_only_halved_evaluations_carry_a_reason(self, budget, schedule):
        # A candidate that ran keeps no admission reason; one that did not
        # run names the schedule that ran and how many survivors it admitted.
        report = explore_search(budget)
        admitted = [c for c in report.candidates if c.cost > 0]
        for record in admitted:
            assert (record.reason is None) == (record.status != "halved"), record.key
        halved = any(len(c.rungs) > 1 or c.status == "halved" for c in admitted)
        assert halved == (schedule == "halving")
        for record in report.candidates:
            if record.status == "skipped":
                assert record.reason.startswith(
                    f"not admitted to {schedule} (cohort {len(admitted)} "
                ), record.reason
