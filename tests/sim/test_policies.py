"""Tests of dispatch policies, replica sizing and the dispatcher mechanics."""

from __future__ import annotations

import pytest

from repro.api import Evaluator, Scenario
from repro.platform import ResourceVector
from repro.sim.engine import PARK, Process
from repro.sim import (
    Accelerator,
    AxiBus,
    Dispatcher,
    PlExecution,
    Request,
    SimScenario,
    Simulator,
    simulate,
    size_replicas,
)


@pytest.fixture(scope="module")
def evaluator():
    return Evaluator()


class TestSizeReplicas:
    def test_sized_by_device_budget(self, evaluator):
        scenario = Scenario(model="rODENet-3", depth=56, n_units=16)
        fit, per = size_replicas(scenario, 0, evaluator)
        assert per == evaluator.offload_decision(scenario).resources
        device = scenario.board_spec.fpga
        assert fit >= 1
        assert per.scale(fit).fits(device)
        assert not per.scale(fit + 1).fits(device)

    def test_smaller_datapath_fits_more(self, evaluator):
        # layer3_2's BRAM demand caps rODENet-3 at one copy; layer1's much
        # smaller feature maps leave room for several replicas.
        big, _ = size_replicas(Scenario(model="rODENet-3", depth=56, n_units=16), 0, evaluator)
        small, _ = size_replicas(Scenario(model="rODENet-1", depth=56, n_units=1), 0, evaluator)
        assert big == 1
        assert small > big

    def test_explicit_count_is_kept(self, evaluator):
        scenario = Scenario(model="rODENet-1", depth=20)
        count, per = size_replicas(scenario, 3, evaluator)
        assert count == 3
        assert per == evaluator.offload_decision(scenario).resources

    def test_no_offload_target_gets_one_idle_replica(self, evaluator):
        count, per = size_replicas(Scenario(model="ResNet", depth=20), 0, evaluator)
        assert count == 1
        assert per == ResourceVector()
        assert size_replicas(Scenario(model="ResNet", depth=20), 2, evaluator)[0] == 2


def _sim(evaluator, **kw):
    defaults = dict(
        model="rODENet-3",
        depth=20,
        arrival="deterministic",
        arrival_rate_hz=8.0,
        n_requests=16,
        replicas=2,
        policy="fifo",
        seed=0,
    )
    defaults.update(kw)
    return simulate(SimScenario(**defaults), evaluator=evaluator)


class TestPolicies:
    def test_round_robin_spreads_work_evenly(self, evaluator):
        report = _sim(evaluator, policy="round_robin", replicas=2)
        utils = report.utilization["accelerators"]
        assert len(utils) == 2
        # Pinned rotation: both replicas see almost identical load.
        assert utils[0] == pytest.approx(utils[1], rel=0.2)

    def test_fifo_is_work_conserving_under_load(self, evaluator):
        # Four PS cores keep the PL fed, so the single replica saturates.
        fifo = _sim(
            evaluator, policy="fifo", arrival_rate_hz=50.0, n_requests=30,
            replicas=1, ps_cores=4,
        )
        assert fifo.requests["completed"] == 30
        assert max(fifo.utilization["accelerators"]) > 0.5

    def test_batched_forms_batches_under_load(self, evaluator):
        report = _sim(
            evaluator, policy="batched", batch_size=4, arrival_rate_hz=100.0,
            n_requests=24, replicas=1,
        )
        assert report.batch_sizes["max"] > 1
        assert report.batch_sizes["max"] <= 4

    def test_batched_single_request_equals_fifo(self, evaluator):
        fifo = _sim(evaluator, policy="fifo", n_requests=1, replicas=1)
        batched = _sim(evaluator, policy="batched", n_requests=1, replicas=1)
        assert batched.latency.mean == pytest.approx(fifo.latency.mean, rel=1e-12)

    def test_batched_pipelining_beats_fifo_at_saturation(self, evaluator):
        common = dict(arrival_rate_hz=200.0, n_requests=40, replicas=1, ps_cores=4)
        fifo = _sim(evaluator, policy="fifo", **common)
        batched = _sim(evaluator, policy="batched", batch_size=8, **common)
        # Double-buffered DMA hides transfer time inside compute time.
        assert batched.horizon_s < fifo.horizon_s

    @pytest.mark.parametrize(
        "policy, pinned, drain",
        [("fifo", False, 1), ("batched", False, 4), ("round_robin", True, 1)],
    )
    def test_policy_is_dispatcher_state(self, policy, pinned, drain):
        sim = Simulator()
        accelerators = [Accelerator(sim, 0), Accelerator(sim, 1)]
        dispatcher = Dispatcher(sim, AxiBus(sim, channels=1), accelerators, policy, 4)
        assert (dispatcher.pinned, dispatcher.drain) == (pinned, drain)

    def test_dispatcher_prices_transfers_from_the_plan(self):
        """DMA bursts use the execution's *stored* times, not the bus model.

        The service plan may have been built with a non-default transfer
        model; the simulated (DMA in, compute, DMA out) must follow its
        decomposition or the contention-free identity breaks.
        """

        sim = Simulator()
        bus = AxiBus(sim, channels=1)  # default model would price these differently
        dispatcher = Dispatcher(sim, bus, [Accelerator(sim, 0)], "fifo", 1)
        plx = PlExecution(
            layer="layer1",
            words_in=100,
            words_out=100,
            transfer_in_seconds=0.25,
            transfer_out_seconds=0.5,
            compute_seconds=1.0,
        )
        request = Request(index=0, arrival=0.0, scenario=Scenario())
        woken = []

        def requester():
            execution = dispatcher.submit(request, plx)
            yield PARK
            woken.append((sim.now, execution.finished))

        Process(sim, requester())
        sim.run()
        assert woken == [(pytest.approx(0.25 + 1.0 + 0.5), True)]

    def test_submit_outside_a_process_is_rejected(self):
        # Nobody would be parked on the invocation to wake.
        sim = Simulator()
        dispatcher = Dispatcher(sim, AxiBus(sim), [Accelerator(sim, 0)], "fifo", 1)
        plx = PlExecution(
            layer="layer1",
            words_in=1,
            words_out=1,
            transfer_in_seconds=0.1,
            transfer_out_seconds=0.1,
            compute_seconds=0.1,
        )
        request = Request(index=0, arrival=0.0, scenario=Scenario())
        with pytest.raises(RuntimeError, match="inside a process"):
            dispatcher.submit(request, plx)

    def test_two_replicas_beat_one_under_load(self, evaluator):
        one = _sim(evaluator, replicas=1, arrival_rate_hz=50.0, n_requests=30, ps_cores=4)
        two = _sim(evaluator, replicas=2, arrival_rate_hz=50.0, n_requests=30, ps_cores=4)
        assert two.latency.percentiles[95] < one.latency.percentiles[95]
        assert two.horizon_s <= one.horizon_s
