"""Warm-up trimming (``warmup_s``) and per-board serving budgets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Evaluator, SimScenario, simulate
from repro.platform import get_board
from repro.sim.metrics import latency_stats, windowed_mean


def poisson_scenario(**overrides) -> SimScenario:
    base = dict(
        model="rODENet-1",
        depth=20,
        arrival="poisson",
        arrival_rate_hz=4.0,
        n_requests=40,
        replicas=1,
        seed=3,
    )
    base.update(overrides)
    return SimScenario(**base)


class TestWindowedMean:
    def test_difference_over_window(self):
        assert windowed_mean(10.0, 4.0, 3.0) == pytest.approx(2.0)

    def test_empty_window_is_nan(self):
        # A zero-width window measured nothing; 0 would read as "idle".
        assert np.isnan(windowed_mean(10.0, 4.0, 0.0))
        assert np.isnan(windowed_mean(10.0, 4.0, -1.0))


class TestWarmupTrimming:
    def test_zero_warmup_is_the_identity(self):
        ev = Evaluator()
        plain = simulate(poisson_scenario(), evaluator=ev)
        explicit = simulate(poisson_scenario(warmup_s=0.0), evaluator=ev)
        assert explicit.latency == plain.latency
        assert explicit.utilization == plain.utilization
        assert explicit.energy == plain.energy
        assert explicit.horizon_s == plain.horizon_s
        assert explicit.requests["measured"] == plain.requests["completed"]

    def test_warmup_drops_transient_requests_from_percentiles(self):
        ev = Evaluator()
        full = simulate(poisson_scenario(), evaluator=ev)
        cut = float(full.horizon_s) * 0.4
        trimmed = simulate(poisson_scenario(warmup_s=cut), evaluator=ev)
        assert trimmed.requests["offered"] == full.requests["offered"]
        assert trimmed.requests["measured"] < full.requests["measured"]
        assert trimmed.latency.count == trimmed.requests["measured"]
        # The horizon still covers the whole run; only measurement moved.
        assert trimmed.horizon_s == pytest.approx(full.horizon_s)

    def test_warmup_windows_utilisation_and_energy(self):
        ev = Evaluator()
        full = simulate(poisson_scenario(seed=11), evaluator=ev)
        cut = float(full.horizon_s) * 0.5
        trimmed = simulate(poisson_scenario(seed=11, warmup_s=cut), evaluator=ev)
        for key in ("ps", "axi", "accelerator_mean"):
            assert 0.0 <= trimmed.utilization[key] <= 1.0
        # Energy integrates over the (smaller) measurement window only.
        assert trimmed.energy["total_energy_J"] < full.energy["total_energy_J"]
        assert trimmed.energy["energy_per_request_J"] is not None

    def test_warmup_beyond_horizon_measures_nothing(self):
        ev = Evaluator()
        full = simulate(poisson_scenario(), evaluator=ev)
        report = simulate(
            poisson_scenario(warmup_s=float(full.horizon_s) + 100.0), evaluator=ev
        )
        assert report.requests["measured"] == 0
        assert report.latency.count == 0
        # Nothing measured reads as NaN (null in JSON), never as 0 rps /
        # 0 s latency, and the report says so.
        assert np.isnan(report.throughput_rps)
        assert np.isnan(report.latency.mean)
        assert report.note is not None and "warm-up" in report.note
        assert report.as_dict()["throughput_rps"] is None
        assert "[note]" in report.render()
        # An empty window has no average power either: null, an empty CSV
        # cell and "n/a" in text, never 0 W.
        assert report.as_dict()["energy"]["average_power_W"] is None
        header, row = report.to_csv().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["average_power_W"] == ""
        assert "  average power      : n/a" in report.render().splitlines()
        # Regression: the warm-up probe must not inflate the horizon — the
        # report still describes the real run, just with an empty window.
        assert report.horizon_s == pytest.approx(full.horizon_s)

    def test_warmup_trims_queue_peak_and_batch_stats(self):
        # A cold-start burst, then a quiet tail: the pre-warmup backlog peak
        # and its large batches must not leak into the trimmed report.
        ev = Evaluator()
        trace = tuple([0.0] * 10 + [20.0, 20.5])
        burst = SimScenario(
            model="rODENet-1", depth=20, arrival="trace", trace=trace,
            n_requests=None, replicas=1, policy="batched", batch_size=8,
        )
        full = simulate(burst, evaluator=ev)
        trimmed = simulate(burst.replace(warmup_s=15.0), evaluator=ev)
        assert trimmed.queue["peak_depth"] < full.queue["peak_depth"]
        assert trimmed.batch_sizes["count"] < full.batch_sizes["count"]
        assert trimmed.batch_sizes["max"] <= full.batch_sizes["max"]

    def test_contention_free_run_still_matches_the_analytic_time(self):
        # The differential guarantee survives the refactor: one request, one
        # replica, fifo => simulated latency == analytic total_w_pl_s.
        ev = Evaluator()
        scenario = SimScenario(
            model="rODENet-3", depth=56, arrival="deterministic",
            arrival_rate_hz=0.01, n_requests=1, replicas=1,
        )
        report = simulate(scenario, evaluator=ev)
        analytic = ev.evaluate(scenario.design_point).timing["total_w_pl_s"]
        assert report.latency.mean == pytest.approx(analytic, rel=1e-9)


class TestSketchRouting:
    """The nominal latency path flows through the exact sample store."""

    def test_report_carries_its_samples(self):
        ev = Evaluator()
        report = simulate(poisson_scenario(), evaluator=ev)
        assert report.latency_sketch is not None
        assert report.latency_sketch.stats() == report.latency
        assert report.wait_sketch is not None
        assert report.wait_sketch.stats() == report.wait

    def test_percentiles_stay_exact_past_the_old_buffer(self):
        # 5,000 requests: past the 4,096 samples the store once buffered
        # before it binned them, the report still gives np.percentile over
        # every measured request.
        ev = Evaluator()
        report = simulate(
            poisson_scenario(n_requests=5_000, arrival_rate_hz=2.0, replicas=2), evaluator=ev
        )
        latency = report.latency_sketch.samples
        wait = report.wait_sketch.samples
        assert len(latency) == len(wait) == report.requests["completed"] == 5_000
        assert report.latency == latency_stats(latency)
        assert report.wait == latency_stats(wait)

    def test_empty_window_keeps_nan_note_and_json_null(self):
        # Regression: PR 6's NaN-not-zero empty-window semantics survive the
        # sketch routing — the [note] line renders and JSON carries null.
        ev = Evaluator()
        full = simulate(poisson_scenario(), evaluator=ev)
        report = simulate(
            poisson_scenario(warmup_s=float(full.horizon_s) + 50.0), evaluator=ev
        )
        assert report.latency.count == 0
        assert np.isnan(report.latency.mean)
        assert report.as_dict()["latency"]["mean_s"] is None
        assert report.note is not None and "[note]" in report.render()


class TestPerBoardServing:
    def test_auto_replicas_follow_the_board_budget(self):
        ev = Evaluator()
        small = simulate(poisson_scenario(replicas=0, board="PYNQ-Z2"), evaluator=ev)
        large = simulate(poisson_scenario(replicas=0, board="ZCU104"), evaluator=ev)
        assert large.scenario["replicas"] > small.scenario["replicas"]

    def test_auto_ps_cores_follow_the_board(self):
        ev = Evaluator()
        for name in ("PYNQ-Z2", "Ultra96-V2"):
            report = simulate(poisson_scenario(ps_cores=0, board=name), evaluator=ev)
            assert report.scenario["ps_cores"] == get_board(name).ps_cores

    def test_same_trace_identical_arrival_pressure_across_boards(self):
        # Identical seed + Poisson process => both boards see the same
        # offered trace; only service times and budgets differ.
        ev = Evaluator()
        a = simulate(poisson_scenario(board="PYNQ-Z2", seed=5), evaluator=ev)
        b = simulate(poisson_scenario(board="ZCU104", seed=5), evaluator=ev)
        assert a.requests["offered"] == b.requests["offered"]
        assert b.latency.mean < a.latency.mean  # faster PS + PL clocks
        assert b.service_s < a.service_s

    def test_board_energy_uses_the_board_power_profile(self):
        ev = Evaluator()
        a = simulate(poisson_scenario(board="PYNQ-Z2"), evaluator=ev)
        b = simulate(poisson_scenario(board="ZCU104"), evaluator=ev)
        # The ZU7EV board idles hotter: higher static floor per second.
        assert (b.energy["total_energy_J"] / b.horizon_s) > (
            a.energy["total_energy_J"] / a.horizon_s
        )
