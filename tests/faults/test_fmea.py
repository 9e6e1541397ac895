"""FMEA tabulation: zero-fault identity, weighting, the resilience knee."""

from __future__ import annotations

import json
import math

import pytest

from repro.api import Evaluator
from repro.faults import (
    DEFAULT_SLO_FACTOR,
    ReplicaDeath,
    default_fault_domain,
    run_fmea,
)
from repro.sim import SimScenario, build_service_plan, simulate


@pytest.fixture(scope="module")
def evaluator():
    return Evaluator()


def scenario(**overrides) -> SimScenario:
    base = dict(
        model="rODENet-3",
        depth=20,
        arrival="poisson",
        arrival_rate_hz=3.0,
        n_requests=40,
        replicas=1,
        ps_cores=2,
        seed=0,
    )
    base.update(overrides)
    return SimScenario(**base)


class TestZeroFaultIdentity:
    def test_empty_fault_list_is_bit_identical_to_nominal(self, evaluator):
        # The acceptance bar: all fault plumbing must be inert when no fault
        # fires — same events, same floats, same serialised report.
        s = scenario(slo_s=0.6)
        nominal = simulate(s, evaluator=evaluator)
        armed = simulate(s, evaluator=evaluator, faults=[])
        assert armed.as_dict() == nominal.as_dict()

    def test_zero_rate_fmea_degenerates_to_the_nominal_run(self, evaluator):
        s = scenario(slo_s=0.6)
        study = run_fmea(s, [ReplicaDeath(rate_per_hour=0.0)], evaluator=evaluator)
        nominal = simulate(s, evaluator=evaluator)
        assert study.nominal.as_dict() == nominal.as_dict()
        (row,) = study.rows
        assert row["samples"] == 0
        assert row["expected_slo_violation"] == 0.0
        assert row["d_p95_ms"] == 0.0
        assert study.samples == []
        assert study.expected_slo_violation == 0.0

    def test_zero_rate_row_is_exact_zeros_against_an_unmeasured_nominal(self, evaluator):
        # A warm-up past the last request leaves the nominal p95 NaN; a mode
        # that never fired still reports exact zero deltas, not NaN.
        s = scenario(slo_s=0.6, n_requests=3, warmup_s=1000.0)
        study = run_fmea(s, [ReplicaDeath(rate_per_hour=0.0)], evaluator=evaluator)
        assert math.isnan(study.nominal.latency.percentiles[95])
        (row,) = study.rows
        for key in ("expected_occurrences", "d_violation_fraction", "expected_slo_violation",
                    "d_p95_ms", "d_mean_ms", "d_energy_J", "corrupted_mean"):
            assert row[key] == 0.0, key


class TestRunFmea:
    def test_default_slo_is_the_knee_convention(self, evaluator):
        s = scenario()  # no slo_s set
        study = run_fmea(s, [ReplicaDeath(rate_per_hour=60.0)], n_samples=1,
                         evaluator=evaluator)
        service = build_service_plan(s.design_point, evaluator=evaluator).total_seconds
        assert study.slo_s == pytest.approx(DEFAULT_SLO_FACTOR * service)

    def test_explicit_slo_wins(self, evaluator):
        study = run_fmea(scenario(slo_s=0.75), [ReplicaDeath(rate_per_hour=60.0)],
                         n_samples=1, evaluator=evaluator)
        assert study.slo_s == 0.75

    def test_rows_and_samples_accounting(self, evaluator):
        modes = [ReplicaDeath(rate_per_hour=60.0), ReplicaDeath(rate_per_hour=0.0)]
        study = run_fmea(scenario(), modes, n_samples=3, evaluator=evaluator)
        assert len(study.rows) == 2
        live, dead = study.rows
        assert live["samples"] == 3 and dead["samples"] == 0
        assert len(study.samples) == 3
        assert sum(s["weight"] for s in study.samples) == pytest.approx(1.0)
        assert live["expected_occurrences"] == pytest.approx(
            60.0 * study.nominal.horizon_s / 3600.0
        )
        # The headline column is occurrences x the (clamped) delta.
        assert live["expected_slo_violation"] == pytest.approx(
            live["expected_occurrences"] * max(0.0, live["d_violation_fraction"])
        )

    def test_replica_death_hurts_a_single_replica_fleet(self, evaluator):
        study = run_fmea(scenario(replicas=1), [ReplicaDeath(rate_per_hour=60.0)],
                         evaluator=evaluator)
        (row,) = study.rows
        assert row["d_violation_fraction"] > 0
        assert row["expected_slo_violation"] > 0

    def test_quadrature_sampling_runs(self, evaluator):
        study = run_fmea(scenario(), [ReplicaDeath(rate_per_hour=60.0)],
                         n_samples=2, method="quadrature", evaluator=evaluator)
        assert len(study.samples) == 2
        assert sum(s["weight"] for s in study.samples) == pytest.approx(1.0)

    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_a_firing_mode_needs_a_positive_sample_count(self, evaluator, n_samples):
        # A mode that can fire is never skipped as "never fired": a sample
        # count below one is an input error, not a risk-free row.
        with pytest.raises(ValueError, match="n_samples"):
            run_fmea(scenario(), [ReplicaDeath(rate_per_hour=60.0)],
                     n_samples=n_samples, evaluator=evaluator)

    def test_expected_violation_decreases_with_replicas(self, evaluator):
        # The acceptance criterion: at a load one replica can carry, adding
        # replicas monotonically shrinks the expected SLO damage of a
        # replica death, with a strict knee from one replica to two.
        rows = {}
        for replicas in (1, 2, 3):
            study = run_fmea(
                scenario(replicas=replicas),
                [ReplicaDeath(rate_per_hour=60.0)],
                evaluator=evaluator,
            )
            rows[replicas] = study.rows[0]["expected_slo_violation"]
        assert rows[1] > rows[2] >= rows[3]
        assert rows[1] > 0


class TestStudySerialisation:
    @pytest.fixture(scope="class")
    def study(self):
        return run_fmea(
            scenario(), default_fault_domain(), n_samples=1, evaluator=Evaluator()
        )

    def test_as_dict_is_json_serialisable(self, study):
        payload = json.loads(json.dumps(study.as_dict()))
        for key in ("scenario", "slo_s", "nominal", "fmea", "samples",
                    "expected_slo_violation"):
            assert key in payload
        assert len(payload["fmea"]) == len(default_fault_domain())
        kinds = {row["mode"] for row in payload["fmea"]}
        assert kinds == {"replica_death", "axi_degraded", "ps_core_loss",
                         "dma_corruption"}

    def test_csv_has_one_line_per_mode(self, study):
        lines = study.to_csv().splitlines()
        assert len(lines) == 1 + len(study.rows)
        assert lines[0].split(",")[0] == "mode"

    def test_render_mentions_the_headline(self, study):
        text = study.render()
        assert "FMEA:" in text
        assert "nominal:" in text
        assert "E[violation]" in text
        assert "total expected SLO-violation fraction" in text
