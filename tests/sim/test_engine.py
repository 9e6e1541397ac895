"""Property-based and unit tests of the discrete-event kernel.

The three load-bearing invariants (entries fire in timestamp order, FIFO
tie-breaking, monotone clock) are pinned with hypothesis over arbitrary
delay sets, driven by :meth:`Simulator.schedule` and bare-delay sleeps —
these are what make every simulation deterministic and reproducible.
"""

from __future__ import annotations

import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.engine import PARK, Process

delays = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(delays)
def test_events_fire_in_timestamp_order(ds):
    sim = Simulator()
    fired = []
    for i, d in enumerate(ds):
        sim.schedule(d, lambda i=i: fired.append((sim.now, i)))
    sim.run()
    assert len(fired) == len(ds)
    times = [t for t, _ in fired]
    assert times == sorted(times)
    # Every event fires exactly at its scheduled timestamp.
    assert sorted(times) == sorted(ds)


@settings(max_examples=200, deadline=None)
@given(delays)
def test_fifo_ties_preserve_scheduling_order(ds):
    """Events scheduled for the same instant fire in scheduling order."""

    sim = Simulator()
    fired = []
    for i, d in enumerate(ds):
        sim.schedule(d, lambda i=i: fired.append((sim.now, i)))
    sim.run()
    # All scheduled at t=0: within one timestamp, scheduling index ascends.
    by_time = {}
    for t, i in fired:
        by_time.setdefault(t, []).append(i)
    for indices in by_time.values():
        assert indices == sorted(indices)


@settings(max_examples=200, deadline=None)
@given(delays)
def test_clock_never_goes_backwards(ds):
    sim = Simulator()
    observed = []
    for d in ds:
        sim.schedule(d, lambda: observed.append(sim.now))
    last = [0.0]

    sim.run()
    for now in observed:
        assert now >= last[0]
        last[0] = now
    assert sim.now == max(ds)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e3, allow_nan=False), min_size=1, max_size=20))
def test_process_sleep_chain_advances_by_sum(ds):
    sim = Simulator()

    def proc():
        for d in ds:
            yield d

    finished = []
    Process(sim, proc(), done=lambda: finished.append(sim.now))
    sim.run()
    assert finished == [sim.now]
    assert sim.now == pytest.approx(sum(ds))


#: Where a process is resumed: spawned at ``now`` (the lane), after a sleep
#: (the heap), as an arrival later than ``now`` (the stream), and woken from
#: a park (the lane again, after a timed entry).
RESUME_SITES = ("lane", "heap", "stream", "woken")


def _yield_at(site, target):
    """Run one process that yields ``target`` at ``site``; return the
    simulator and the time of that resume."""

    sim = Simulator()
    resumed = []

    def process():
        if site == "heap":
            yield 1.0
        elif site == "woken":
            parked = sim.active_process
            sim.schedule(1.5, lambda: sim.wake(parked))
            yield PARK
        resumed.append(sim.now)
        yield target

    if site == "stream":
        sim.run([(2.0, process())])
    else:
        Process(sim, process())
        sim.run()
    return sim, resumed


class TestYields:
    @pytest.mark.parametrize("site", RESUME_SITES)
    @pytest.mark.parametrize("target", [3, "x", None, object()])
    def test_yielding_anything_else_is_a_type_error(self, target, site):
        # Only a float is a delay: an int is not silently a sleep.
        with pytest.raises(TypeError, match="must yield float delays or PARK"):
            _yield_at(site, target)

    @pytest.mark.parametrize("site", RESUME_SITES)
    @pytest.mark.parametrize("delay", [-1.0, math.inf, math.nan])
    def test_yielding_a_bad_delay_is_a_value_error(self, delay, site):
        with pytest.raises(ValueError, match="non-negative and finite"):
            _yield_at(site, delay)

    @pytest.mark.parametrize("site", RESUME_SITES)
    def test_a_float_subclass_is_a_delay(self, site):
        # NumPy scalars are float subclasses: np.float64 sleeps like a float.
        sim, (at,) = _yield_at(site, np.float64(0.25))
        assert sim.now == at + 0.25
        assert at == {"lane": 0.0, "heap": 1.0, "stream": 2.0, "woken": 1.5}[site]


class TestSleepAndPark:
    def test_bare_delay_sleeps_in_one_entry(self):
        sim = Simulator()
        trace = []

        def sleeper():
            value = yield 1.5
            trace.append((sim.now, value))
            yield 0.0
            trace.append((sim.now, None))

        Process(sim, sleeper())
        sim.run()
        assert trace == [(1.5, None), (1.5, None)]
        # start and two wake-ups: a process without done posts no completion
        assert sim.events_processed == 3

    def test_sleep_ties_fire_fifo_with_scheduled_calls(self):
        sim = Simulator()
        order = []

        def sleeper(tag, delay):
            yield delay
            order.append(tag)

        def scheduler(tag, delay):
            sim.schedule(delay, lambda: order.append(tag))
            return
            yield  # pragma: no cover — a generator with no waits

        Process(sim, sleeper("a", 1.0))
        Process(sim, scheduler("b", 1.0))
        Process(sim, sleeper("c", 1.0))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_parked_process_resumes_when_woken(self):
        sim = Simulator()
        parked = []
        trace = []

        def sleeper():
            parked.append(sim.active_process)
            value = yield PARK
            trace.append((sim.now, value))

        def waker():
            yield 2.0
            sim.wake(parked.pop())

        Process(sim, sleeper())
        Process(sim, waker())
        sim.run()
        assert trace == [(2.0, None)]

    def test_never_woken_process_stays_parked(self):
        sim = Simulator()
        finished = []

        def sleeper():
            yield PARK

        Process(sim, sleeper(), done=lambda: finished.append(sim.now))
        sim.run()
        assert finished == []
        assert sim.events_processed == 1

    def test_active_process_is_the_resumed_one(self):
        sim = Simulator()
        seen = []

        def body():
            seen.append(sim.active_process)
            yield 1.0
            seen.append(sim.active_process)

        procs = [Process(sim, body()), Process(sim, body())]
        sim.schedule(0.5, lambda: seen.append(sim.active_process))
        sim.run()
        assert seen == [procs[0], procs[1], None, procs[0], procs[1]]
        assert sim.active_process is None


class TestDone:
    def test_done_resumes_a_parked_parent(self):
        sim = Simulator()
        trace = []

        def child():
            yield 2.0
            trace.append(("child", sim.now))

        def parent():
            Process(sim, child(), done=sim.active_process)
            yield PARK
            trace.append(("parent", sim.now))

        Process(sim, parent())
        sim.run()
        assert trace == [("child", 2.0), ("parent", 2.0)]

    def test_done_fires_fifo_at_the_return_instant(self):
        sim = Simulator()
        order = []

        def job(delay):
            yield delay

        Process(sim, job(1.0), done=lambda: order.append(("a", sim.now)))
        Process(sim, job(1.0), done=lambda: order.append(("b", sim.now)))
        sim.schedule(1.0, lambda: order.append(("scheduled", sim.now)))
        Process(sim, job(0.5), done=lambda: order.append(("c", sim.now)))
        sim.run()
        # The scheduled call was queued for t=1 before either job returned
        # there; each done is queued when its job returns, in return order.
        assert order == [("c", 0.5), ("scheduled", 1.0), ("a", 1.0), ("b", 1.0)]
        # Three starts, three wake-ups, three dones and the scheduled call.
        assert sim.events_processed == 10

    def test_a_process_without_done_posts_nothing_when_it_returns(self):
        def job():
            yield 1.0

        counts = []
        for done in (None, lambda: None):
            sim = Simulator()
            Process(sim, job(), done=done)
            sim.run()
            counts.append(sim.events_processed)
        # Start and wake-up; the done, when there is one, is a third entry.
        assert counts == [2, 3]


def _noop():
    return None
    yield  # pragma: no cover — makes this a (never-waiting) generator


class TestArrivals:
    """``run(arrivals)``: the arrival fast path, one queue entry per start."""

    @settings(max_examples=100, deadline=None)
    @given(delays)
    def test_arrivals_equal_one_by_one_spawning(self, ds):
        def job(sim, out, i, sleep):
            if sleep is not None:
                yield sleep
            out.append((sim.now, i))

        # The same starts as processes spawned one by one, each opening
        # with a sleep of its arrival time.
        solo, sim = [], Simulator()
        for i, d in enumerate(ds):
            Process(sim, job(sim, solo, i, d))
        sim.run()
        arrived, sim = [], Simulator()
        sim.run([(d, job(sim, arrived, i, None)) for i, d in enumerate(ds)])
        # Identical firing instants *and* identical FIFO tie-breaking.
        assert arrived == solo
        assert [t for t, _ in solo] == sorted(t for t, _ in solo)

    def test_finished_arrivals_are_not_kept_by_the_queue(self):
        # A process holds the only reference to its generator, so a dead
        # generator means a freed process.  The arrival stream clears each
        # slot as run() reads it: a finished arrival is freed mid-run, not
        # kept to the end of the run with the whole stream.
        sim = Simulator()
        refs = []

        def arrivals():
            for d in (1.0, 2.0, 10.0):
                gen = _noop()
                refs.append(weakref.ref(gen))
                yield d, gen

        seen = []
        sim.schedule(5.0, lambda: seen.append([ref() is None for ref in refs]))
        sim.run(arrivals())
        assert seen == [[True, True, False]]
        assert [ref() is None for ref in refs] == [True, True, True]

    def test_arrival_matches_a_leading_sleep(self):
        sim = Simulator()
        trace = []

        def job():
            trace.append(sim.now)
            yield 2.0
            trace.append(sim.now)

        sim.run([(3.0, job())])
        assert trace == [3.0, 5.0]
        assert sim.now == 5.0

    def test_arrival_is_cheaper_than_a_leading_sleep(self):
        # An arrival: 1 event.  The equivalent `yield d` process costs 2
        # (start, wake-up) — the saving that makes million-request arrival
        # scheduling cheap.
        fast = Simulator()
        fast.run([(1.0, _noop())])
        assert fast.events_processed == 1

        def waits(sim):
            yield 1.0

        slow = Simulator()
        Process(slow, waits(slow))
        slow.run()
        assert slow.events_processed == 2

    def test_bad_arrival_time_rejected(self):
        for time in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="arrival time"):
                Simulator().run([(time, _noop())])
        # Nor may an arrival precede the clock of a second run.
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError, match="arrival time"):
            sim.run([(1.0, _noop())])

    def test_arrivals_draw_their_order_when_run_starts(self):
        # Queued before run(), "early" ties ahead of the arrival; "late" is
        # scheduled for the same instant once the run has started.
        sim = Simulator()
        order = []

        def arrival():
            order.append("arrival")
            return
            yield  # pragma: no cover — a generator with no waits

        def scheduler():
            sim.schedule(1.0, lambda: order.append("late"))
            return
            yield  # pragma: no cover — a generator with no waits

        sim.schedule(1.0, lambda: order.append("early"))
        Process(sim, scheduler())
        sim.run([(1.0, arrival())])
        assert order == ["early", "arrival", "late"]
        assert sim.now == 1.0

    def test_each_run_takes_only_its_own_arrivals(self):
        sim = Simulator()
        order = []

        def job(tag):
            order.append((sim.now, tag))
            return
            yield  # pragma: no cover — a generator with no waits

        sim.run([(1.0, job("a"))])
        sim.run([(3.0, job("c")), (2.0, job("b"))])
        # A run without arrivals starts nothing left over from earlier runs.
        sim.run()
        assert order == [(1.0, "a"), (2.0, "b"), (3.0, "c")]
        assert sim.events_processed == 3

    def test_arrival_at_now_follows_entries_already_queued(self):
        sim = Simulator()
        order = []

        def job(tag):
            order.append(tag)
            return
            yield  # pragma: no cover — a generator with no waits

        Process(sim, job("process"))
        sim.schedule(0.0, lambda: order.append("scheduled"))
        sim.run([(0.0, job("arrival")), (0.0, job("second arrival"))])
        assert order == ["process", "scheduled", "arrival", "second arrival"]


class TestSchedule:
    def test_schedule_fires_a_callback_after_the_delay(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [3.0]

    def test_schedule_shares_the_fifo_queue(self):
        """A scheduled callback ties with a sleep in scheduling order."""

        sim = Simulator()
        order = []

        def sleeper():
            yield 1.0
            order.append("process")

        sim.schedule(1.0, lambda: order.append("first"))
        Process(sim, sleeper())
        sim.schedule(1.0, lambda: order.append("second"))
        sim.run()
        # The sleeper's wake-up is queued when it starts, after both calls.
        assert order == ["first", "second", "process"]

    def test_schedule_rejects_a_bad_delay(self):
        # A NaN or infinite time would corrupt the heap order or the clock.
        for delay in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="non-negative and finite"):
                Simulator().schedule(delay, lambda: None)


class TestRunUntil:
    """``run`` drains the whole queue; the class name keeps its test ids."""

    def test_events_processed_counter(self):
        sim = Simulator()
        for d in (1.0, 2.0):
            sim.schedule(d, lambda: None)
        sim.run()
        assert sim.events_processed == 2
