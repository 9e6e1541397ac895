"""Unit tests of the balancer tier: routing, admission inputs, board ledgers."""

from __future__ import annotations

import math

import pytest

from repro.fleet import BATCH_SPILL_FACTOR, Balancer, BoardServer


def make_board(
    index: int = 0,
    group: int = 0,
    name: str = "PYNQ-Z2",
    replicas: int = 1,
    svc_s: float = 1.0,
    ps_s: float = 0.1,
    pl_w: float = 2.0,
    ps_active_w: float = 1.3,
    ps_idle_w: float = 0.3,
    ps_cores: int = 1,
) -> BoardServer:
    return BoardServer(
        index=index,
        group=group,
        name=name,
        replicas=replicas,
        svc_s=svc_s,
        ps_s=ps_s,
        pl_w=pl_w,
        ps_active_w=ps_active_w,
        ps_idle_w=ps_idle_w,
        ps_cores=ps_cores,
    )


class TestBoardServer:
    def test_assign_is_fifo_per_slot(self):
        b = make_board(replicas=2, svc_s=1.0)
        s0 = b.assign(0.0)
        s1 = b.assign(0.0)
        s2 = b.assign(0.0)  # both slots busy: queues behind the first
        assert s0 == (0.0, 1.0)
        assert s1 == (0.0, 1.0)
        assert s2 == (1.0, 2.0)
        assert b.busy_seconds == 3.0
        assert b.served == 3

    def test_predicted_start_respects_boot_delay(self):
        b = make_board()
        b.power_down(0.0)
        b.power_up(10.0, boot_s=5.0)
        assert b.predicted_start(11.0) == 15.0
        start, finish = b.assign(11.0)
        assert (start, finish) == (15.0, 16.0)

    def test_power_ledger_closes_at_drain(self):
        b = make_board(svc_s=4.0)
        b.assign(1.0)  # busy until 5.0
        drained = b.power_down(2.0)
        assert drained == 5.0
        assert b.powered_seconds == 5.0
        assert not b.powered
        assert math.isinf(b.predicted_start(3.0))

    def test_energy_splits_ps_active_idle(self):
        b = make_board(svc_s=2.0, ps_s=0.5, pl_w=2.0, ps_active_w=1.0, ps_idle_w=0.2)
        b.assign(0.0)
        b.finalize(10.0)
        e = b.energy_j()
        assert e["pl_energy_J"] == pytest.approx(2.0 * 10.0)
        assert e["ps_energy_J"] == pytest.approx(1.0 * 0.5 + 0.2 * 9.5)
        assert e["total_energy_J"] == pytest.approx(e["pl_energy_J"] + e["ps_energy_J"])

    def test_ps_energy_follows_mean_core_occupancy(self):
        # Half a second of software on a two-core PS is a quarter of a
        # second of mean occupancy, as the single-board simulator prices it.
        b = make_board(svc_s=2.0, ps_s=0.5, pl_w=2.0, ps_active_w=1.0,
                       ps_idle_w=0.2, ps_cores=2)
        b.assign(0.0)
        b.finalize(10.0)
        assert b.energy_j()["ps_energy_J"] == pytest.approx(1.0 * 0.25 + 0.2 * 9.75)

    def test_finalize_without_traffic_counts_idle_power(self):
        b = make_board(pl_w=3.0, ps_idle_w=0.5)
        b.finalize(4.0)
        assert b.powered_seconds == 4.0
        assert b.energy_j()["total_energy_J"] == pytest.approx(3.0 * 4.0 + 0.5 * 4.0)


class TestRouting:
    def test_least_loaded_picks_earliest_start(self):
        slow = make_board(index=0, svc_s=5.0)
        fast = make_board(index=1, svc_s=1.0)
        bal = Balancer([slow, fast], "least_loaded")
        first = bal.route(0.0, "latency")
        first.assign(0.0)
        # Inventory-order tie-break sent the first request to board 0; the
        # second must go to the idle board 1.
        assert first is slow
        assert bal.route(0.0, "latency") is fast

    def test_latency_skips_unpowered_boards(self):
        a = make_board(index=0)
        b = make_board(index=1)
        a.power_down(0.0)
        bal = Balancer([a, b], "least_loaded")
        assert bal.route(0.0, "latency") is b
        b.power_down(0.0)
        assert bal.route(0.0, "latency") is None

    def test_batch_packs_cheapest_board(self):
        expensive = make_board(index=0, svc_s=1.0, pl_w=10.0)
        cheap = make_board(index=1, svc_s=1.0, pl_w=1.0)
        bal = Balancer([expensive, cheap], "least_loaded")
        assert bal.route(0.0, "batch") is cheap

    def test_batch_spills_when_cheapest_backlogged(self):
        expensive = make_board(index=0, svc_s=1.0, pl_w=10.0)
        cheap = make_board(index=1, svc_s=1.0, pl_w=1.0)
        bal = Balancer([expensive, cheap], "least_loaded")
        # Pack the cheap board past the spill threshold.
        for _ in range(int(BATCH_SPILL_FACTOR) + 2):
            cheap.assign(0.0)
        assert bal.route(0.0, "batch") is expensive

    def test_round_robin_rotates_over_powered(self):
        boards = [make_board(index=i) for i in range(3)]
        boards[1].power_down(0.0)
        bal = Balancer(boards, "round_robin")
        picks = [bal.route(0.0, "latency").index for _ in range(4)]
        assert picks == [0, 2, 0, 2]

    def test_weighted_is_capacity_proportional(self):
        small = make_board(index=0, replicas=1, svc_s=1.0)
        big = make_board(index=1, replicas=3, svc_s=1.0)
        bal = Balancer([small, big], "weighted")
        # Capacity 1 vs 3: u below 0.25 lands on the small board.
        assert bal.route(0.0, "latency", u=0.1) is small
        assert bal.route(0.0, "latency", u=0.9) is big
