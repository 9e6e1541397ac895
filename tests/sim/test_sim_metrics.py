"""Tests of latency statistics, energy accounting and report serialisation."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.platform import PYNQ_Z2, ResourceVector
from repro.sim import SimScenario, energy_summary, latency_stats, simulate


class TestLatencyStats:
    def test_matches_numpy_percentiles(self):
        rng = np.random.default_rng(5)
        samples = list(rng.exponential(1.0, size=500))
        stats = latency_stats(samples)
        assert stats.count == 500
        assert stats.mean == pytest.approx(np.mean(samples))
        for q in (50, 90, 95, 99):
            assert stats.percentiles[q] == pytest.approx(np.percentile(samples, q))
        assert stats.minimum == min(samples)
        assert stats.maximum == max(samples)

    def test_empty_samples_are_nan_not_zero(self):
        # "No data" must be distinguishable from "zero latency": every
        # statistic is NaN, and SimReport.as_dict maps it to JSON null.
        stats = latency_stats([])
        assert stats.count == 0
        assert np.isnan(stats.mean)
        assert np.isnan(stats.as_dict()["p95_s"])


class TestEnergySummary:
    def test_single_core_matches_analytic_split(self):
        cfg = PYNQ_Z2.power
        res = ResourceVector(bram=140, dsp=68, lut=1000, ff=1000)
        out = energy_summary(
            horizon_s=10.0,
            ps_busy_core_seconds=6.0,
            ps_cores=1,
            replica_resources=res,
            n_replicas=1,
            completed=5,
            power=cfg,
        )
        expected_ps = cfg.ps_active_w * 6.0 + cfg.ps_idle_w * 4.0
        assert out["ps_energy_J"] == pytest.approx(expected_ps)
        pl_w = (
            cfg.pl_static_w
            + cfg.pl_dynamic_base_w
            + cfg.pl_dynamic_per_dsp_w * 68
            + cfg.pl_dynamic_per_bram_w * 140
        )
        assert out["pl_energy_J"] == pytest.approx(pl_w * 10.0)
        assert out["total_energy_J"] == pytest.approx(out["ps_energy_J"] + out["pl_energy_J"])
        assert out["energy_per_request_J"] == pytest.approx(out["total_energy_J"] / 5)

    def test_replicas_scale_pl_energy(self):
        res = ResourceVector(bram=10, dsp=10, lut=0, ff=0)
        one = energy_summary(5.0, 1.0, 1, res, 1, 1, PYNQ_Z2.power)
        two = energy_summary(5.0, 1.0, 1, res, 2, 1, PYNQ_Z2.power)
        assert two["pl_energy_J"] == pytest.approx(2 * one["pl_energy_J"])


class TestSimReport:
    @pytest.fixture(scope="class")
    def report(self):
        return simulate(
            SimScenario(
                model="rODENet-3",
                depth=20,
                arrival="poisson",
                arrival_rate_hz=3.0,
                n_requests=20,
                replicas=2,
                policy="batched",
                seed=4,
            )
        )

    def test_as_dict_is_json_serialisable(self, report):
        payload = json.loads(json.dumps(report.as_dict()))
        for key in ("scenario", "requests", "latency", "utilization", "energy",
                    "throughput_rps", "horizon_s", "queue", "bus"):
            assert key in payload
        assert payload["requests"]["completed"] == 20
        assert payload["latency"]["p95_s"] > 0
        assert 0.0 <= payload["utilization"]["ps"] <= 1.0
        assert len(payload["utilization"]["accelerators"]) == 2

    def test_flat_dict_is_scalar(self, report):
        row = report.flat_dict()
        assert all(not isinstance(v, (list, dict)) for v in row.values())
        assert row["completed"] == 20
        assert "latency_p95_s" in row

    def test_csv_round_trip(self, report):
        text = report.to_csv()
        header, data = text.splitlines()
        assert len(header.split(",")) == len(data.split(","))
        assert "latency_p95_s" in header.split(",")

    def test_render_mentions_key_sections(self, report):
        text = report.render()
        for token in ("[requests]", "[latency]", "[utilization]", "[queue]", "[energy]"):
            assert token in text

    def test_utilizations_are_fractions(self, report):
        util = report.utilization
        assert 0.0 <= util["axi"] <= 1.0
        assert all(0.0 <= u <= 1.0 for u in util["accelerators"])
        assert 0.0 <= util["accelerator_mean"] <= 1.0
