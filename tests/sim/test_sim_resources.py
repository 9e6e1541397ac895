"""Tests of the counted-FIFO resource, the AXI bus and the monitors."""

from __future__ import annotations

import pytest

from repro.fpga.axi import AxiTransferModel
from repro.sim import AxiBus, Resource, Simulator
from repro.sim.engine import PARK
from repro.sim.metrics import windowed_mean


class TestResource:
    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            Resource(Simulator(), capacity=0)

    def test_grants_are_strict_fifo(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        order = []

        def user(i):
            if not res.try_acquire():
                res.enqueue()
                yield PARK
            order.append(i)
            yield 1.0
            res.release()

        for i in range(5):
            sim.process(user(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]
        assert sim.now == 5.0

    def test_capacity_two_overlaps(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)

        def user():
            yield from res.use(1.0)

        for _ in range(4):
            sim.process(user())
        sim.run()
        # Two at a time: 4 one-second holds finish in 2 seconds.
        assert sim.now == 2.0

    def test_try_acquire_books_only_a_free_unit(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        assert res.try_acquire()
        assert (res.users, res.busy.level) == (1, 1)
        assert not res.try_acquire()
        assert (res.users, res.queue_depth.level) == (1, 0)
        # Nothing was queued: a free booking posts no grant entry.
        assert sim._heap == []

    def test_enqueue_outside_a_process_is_rejected(self):
        res = Resource(Simulator(), capacity=1)
        with pytest.raises(RuntimeError, match="inside a process"):
            res.enqueue()

    def test_uncontended_use_posts_only_its_timeout(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)

        def user():
            yield from res.use(1.0)

        sim.process(user())
        sim.run()
        # Start, the hold's wake-up and completion: no grant hop in between.
        assert sim.events_processed == 3

    def test_release_of_idle_resource_rejected(self):
        res = Resource(Simulator(), capacity=1)
        with pytest.raises(RuntimeError, match="idle"):
            res.release()

    def test_utilization_integral(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)

        def user():
            yield from res.use(3.0)
            yield 3.0  # idle tail

        sim.process(user())
        sim.run()
        assert sim.now == 6.0
        # Three busy seconds over a six-second run: half occupied.
        assert res.busy.finalize(sim.now) == pytest.approx(3.0)
        assert windowed_mean(res.busy.integral, 0.0, sim.now) == pytest.approx(0.5)

    def test_queue_depth_peak(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)

        def user():
            yield from res.use(1.0)

        for _ in range(4):
            sim.process(user())
        sim.run()
        assert res.queue_depth.peak == 3


class TestAxiBus:
    def test_transfer_time_matches_model(self):
        sim = Simulator()
        bus = AxiBus(sim, channels=1)
        seconds = AxiTransferModel().transfer_seconds(16384)

        def mover():
            yield from bus.transfer(16384, seconds)

        sim.process(mover())
        sim.run()
        assert sim.now == pytest.approx(seconds)
        assert bus.words_moved == 16384
        assert bus.transfers == 1

    def test_zero_word_transfer_is_free(self):
        sim = Simulator()
        bus = AxiBus(sim)

        def mover():
            yield from bus.transfer(0, 1.0)

        sim.process(mover())
        sim.run()
        assert sim.now == 0.0
        assert bus.transfers == 0

    def test_bursts_serialize_on_one_channel(self):
        sim = Simulator()
        bus = AxiBus(sim, channels=1)
        per = AxiTransferModel().transfer_seconds(1000)

        def mover():
            yield from bus.transfer(1000, seconds=per)

        for _ in range(3):
            sim.process(mover())
        sim.run()
        assert sim.now == pytest.approx(3 * per)

    def test_two_channels_halve_the_makespan(self):
        sim = Simulator()
        bus = AxiBus(sim, channels=2)
        per = AxiTransferModel().transfer_seconds(1000)

        def mover():
            yield from bus.transfer(1000, seconds=per)

        for _ in range(4):
            sim.process(mover())
        sim.run()
        assert sim.now == pytest.approx(2 * per)
