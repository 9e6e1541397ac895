"""Degraded-mode serving: injection, drain/re-dispatch, fallback, recovery."""

from __future__ import annotations

import pytest

from repro.api import Evaluator
from repro.faults import AxiDegradation, DmaCorruption, PsCoreLoss, ReplicaDeath
from repro.sim import AxiBus, Resource, SimScenario, Simulator, simulate
from repro.sim.engine import PARK


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
        replicas=2,
        ps_cores=2,
        seed=0,
    )
    base.update(overrides)
    return SimScenario(**base)


class TestResourcePrimitives:
    def test_set_capacity_shrink_drains_without_preemption(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        seen = {}

        def hold(seconds):
            yield from res.use(seconds)

        def blocked():
            yield 0.5
            res.set_capacity(1)
            # Both holders keep running over capacity; no user is evicted.
            seen["users_at_shrink"] = res.users
            yield from res.use(1.0)
            seen["granted_at"] = sim.now - 1.0

        def probe():
            # One release only drains the over-capacity pool; the waiter holds.
            seen["users_at_probe"] = res.users
            seen["waiting_at_probe"] = res.queue_depth.level

        sim.process(hold(1.0))
        sim.process(hold(2.0))
        sim.process(blocked())
        sim.schedule(1.5, probe)
        sim.run()
        assert seen["users_at_shrink"] == 2
        assert seen["users_at_probe"] == 1 and seen["waiting_at_probe"] == 1
        # The waiter gets the unit the second holder hands on at 2 s.
        assert seen["granted_at"] == 2.0

    def test_set_capacity_grow_wakes_waiters(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        granted = []

        def user(tag):
            if not res.try_acquire():
                res.enqueue()
                yield PARK
            granted.append((tag, sim.now))

        sim.process(user("first"))
        sim.process(user("second"))
        sim.run()
        assert granted == [("first", 0.0)]
        sim.schedule(1.0, lambda: res.set_capacity(2))
        sim.run()
        assert granted == [("first", 0.0), ("second", 1.0)]
        assert res.users == 2

    def test_bus_degrade_token_protocol(self):
        sim = Simulator()
        bus = AxiBus(sim, channels=1)
        token = bus.degrade(4.0)
        assert token == 1.0 and bus.slowdown == 4.0
        bus.degrade(token)
        assert bus.slowdown == 1.0

    def test_degraded_bus_stretches_a_burst(self):
        def timed_transfer(slowdown):
            sim = Simulator()
            bus = AxiBus(sim, channels=1)
            bus.degrade(slowdown)
            sim.process(bus.transfer(100, seconds=0.5))
            sim.run()
            return sim.now

        assert timed_transfer(1.0) == pytest.approx(0.5)
        assert timed_transfer(3.0) == pytest.approx(1.5)


class TestReplicaDeath:
    def test_drain_and_redispatch_completes_every_request(self, evaluator):
        mode = ReplicaDeath(rate_per_hour=60.0)
        nominal = simulate(scenario(), evaluator=evaluator)
        report = simulate(
            scenario(), evaluator=evaluator,
            faults=[(mode, nominal.horizon_s * 0.3)],
        )
        assert report.requests["completed"] == report.requests["offered"] == 40
        assert report.faults["replicas_alive_end"] == 1
        assert report.faults["replica_downtime_s"] > 0
        # The survivor carries the load: the run degrades, never deadlocks.
        assert report.latency.mean >= nominal.latency.mean

    def test_injection_log_records_the_event(self, evaluator):
        report = simulate(
            scenario(), evaluator=evaluator,
            faults=[(ReplicaDeath(rate_per_hour=60.0), 1.0)],
        )
        (entry,) = report.faults["injections"]
        assert entry["mode"] == "replica_death"
        assert entry["t_inject"] == 1.0
        assert entry["cleared_at"] is None  # permanent fault

    def test_dead_fleet_falls_back_to_the_ps(self, evaluator):
        mode = ReplicaDeath(rate_per_hour=60.0)
        report = simulate(
            scenario(replicas=1), evaluator=evaluator,
            faults=[(mode, 2.0)],
        )
        assert report.requests["completed"] == 40
        assert report.faults["replicas_alive_end"] == 0
        assert report.faults["ps_fallback_served"] > 0
        # Software inference is far slower than the PL path.
        nominal = simulate(scenario(replicas=1), evaluator=evaluator)
        assert report.latency.maximum > nominal.latency.maximum

    def test_warmup_past_the_run_books_no_downtime(self, evaluator):
        # The warm-up outlasts the run, so the window is empty: a replica
        # that died inside the run must not book downtime or PL energy.
        s = SimScenario(model="rODENet-3", depth=20, n_requests=2, warmup_s=100.0)
        nominal = simulate(s, evaluator=evaluator)
        report = simulate(s, evaluator=evaluator, faults=[(ReplicaDeath(), 1.0)])
        assert report.horizon_s < s.warmup_s
        assert report.faults["replica_downtime_s"] == 0.0
        assert report.energy == nominal.energy

    def test_transient_death_revives_after_duration(self, evaluator):
        mode = ReplicaDeath(rate_per_hour=60.0, duration_s=2.0)
        report = simulate(scenario(), evaluator=evaluator, faults=[(mode, 1.0)])
        assert report.requests["completed"] == 40
        assert report.faults["replicas_alive_end"] == 2
        (entry,) = report.faults["injections"]
        assert entry["cleared_at"] == pytest.approx(3.0)
        assert report.faults["replica_downtime_s"] == pytest.approx(2.0)

    def test_round_robin_skips_the_dead_replica(self, evaluator):
        report = simulate(
            scenario(policy="round_robin"), evaluator=evaluator,
            faults=[(ReplicaDeath(rate_per_hour=60.0), 2.0)],
        )
        assert report.requests["completed"] == 40

    def test_batched_policy_survives_a_death(self, evaluator):
        report = simulate(
            scenario(policy="batched", batch_size=4, arrival_rate_hz=8.0),
            evaluator=evaluator,
            faults=[(ReplicaDeath(rate_per_hour=60.0), 1.0)],
        )
        assert report.requests["completed"] == 40


class TestOtherModes:
    def test_axi_degradation_slows_the_run(self, evaluator):
        nominal = simulate(scenario(), evaluator=evaluator)
        degraded = simulate(
            scenario(), evaluator=evaluator,
            faults=[(AxiDegradation(rate_per_hour=4.0, burst_bits=2), 0.0)],
        )
        assert degraded.requests["completed"] == 40
        assert degraded.latency.mean > nominal.latency.mean

    def test_ps_core_loss_never_drops_below_one_core(self, evaluator):
        report = simulate(
            scenario(ps_cores=2), evaluator=evaluator,
            faults=[(PsCoreLoss(rate_per_hour=1.0, cores_lost=8), 0.0)],
        )
        assert report.requests["completed"] == 40

    def test_corruption_marks_requests_as_slo_violations(self, evaluator):
        # A sign-bit flip always lands in the integer bits => always severe.
        mode = DmaCorruption(rate_per_hour=6.0, bit=31)
        report = simulate(
            scenario(slo_s=1e6), evaluator=evaluator,
            faults=[(mode, 0.0)], fault_seed=7,
        )
        assert report.faults["corrupted_words"] > 0
        assert report.faults["corrupted_requests"] == report.requests["measured"]
        # Corrupted output violates even an absurdly generous SLO.
        assert report.slo["violation_fraction"] == 1.0

    def test_fault_seed_controls_the_corruption_stream(self, evaluator):
        def corrupted(fault_seed):
            report = simulate(
                scenario(), evaluator=evaluator,
                faults=[(DmaCorruption(rate_per_hour=6.0), 0.0)], fault_seed=fault_seed,
            )
            return report.faults["corrupted_requests"]

        assert corrupted(0) == corrupted(0)  # reproducible
        seeds = {corrupted(s) for s in range(6)}
        assert len(seeds) > 1  # and actually seed-dependent


class TestFaultEntries:
    def test_a_bare_mode_is_rejected_with_the_pair_form(self, evaluator):
        with pytest.raises(TypeError, match=r"\(mode, t_inject\) pair"):
            simulate(scenario(), evaluator=evaluator, faults=[ReplicaDeath()])

    def test_a_negative_time_is_rejected(self, evaluator):
        for t_inject in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="injection time must be non-negative"):
                simulate(scenario(), evaluator=evaluator, faults=[(ReplicaDeath(), t_inject)])
