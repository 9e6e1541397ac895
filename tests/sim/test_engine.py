"""Property-based and unit tests of the discrete-event kernel.

The three load-bearing invariants (entries fire in timestamp order, FIFO
tie-breaking, monotone clock) are pinned with hypothesis over arbitrary
delay sets, driven by :meth:`Simulator.schedule` and bare-delay sleeps —
these are what make every simulation deterministic and reproducible.
"""

from __future__ import annotations

import math

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


class TestYields:
    @pytest.mark.parametrize("target", [3, "x", None, object()])
    def test_yielding_anything_else_is_a_type_error(self, target):
        # Only a float is a delay: an int is not silently a sleep.
        sim = Simulator()

        def bad():
            yield target

        sim.process(bad())
        with pytest.raises(TypeError, match="must yield float delays or PARK"):
            sim.run()

    @pytest.mark.parametrize("delay", [-1.0, math.inf, math.nan])
    def test_yielding_a_bad_delay_is_a_value_error(self, delay):
        sim = Simulator()

        def bad():
            yield delay

        sim.process(bad())
        with pytest.raises(ValueError, match="non-negative and finite"):
            sim.run()


class TestSleepAndPark:
    def test_bare_delay_sleeps_in_one_entry(self):
        sim = Simulator()
        trace = []

        def sleeper():
            value = yield 1.5
            trace.append((sim.now, value))
            yield 0.0
            trace.append((sim.now, None))

        sim.process(sleeper())
        sim.run()
        assert trace == [(1.5, None), (1.5, None)]
        # start, two wake-ups and the (no-op) completion
        assert sim.events_processed == 4

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

        sim.process(sleeper("a", 1.0))
        sim.process(scheduler("b", 1.0))
        sim.process(sleeper("c", 1.0))
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

        sim.process(sleeper())
        sim.process(waker())
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

        procs = [sim.process(body()), sim.process(body())]
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

        sim.process(parent())
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


def process_at(sim: Simulator, delay: float, generator) -> Process:
    """Spawn a process whose first resume happens at ``now + delay``.

    Equivalent to a process opening with ``yield delay`` but one
    queue entry cheaper: the start delay ``process_batch`` gives each arrival.
    """

    return Process(sim, generator, delay=delay)


def _noop():
    return None
    yield  # pragma: no cover — makes this a (never-waiting) generator


class TestDelayedProcesses:
    """Delayed starts (`process_batch`, one `Process` each): the arrival fast path."""

    @settings(max_examples=100, deadline=None)
    @given(delays)
    def test_process_batch_equals_one_by_one_spawning(self, ds):
        def spawn(sim, out, batch):
            def job(i):
                out.append((sim.now, i))
                return i
                yield  # pragma: no cover — a generator with no waits

            pairs = [(d, job(i)) for i, d in enumerate(ds)]
            if batch:
                sim.process_batch(pairs)
            else:
                for d, gen in pairs:
                    process_at(sim, d, gen)
            sim.run()
            return out

        solo = spawn(Simulator(), [], batch=False)
        batched = spawn(Simulator(), [], batch=True)
        # Identical firing instants *and* identical FIFO tie-breaking.
        assert batched == solo
        assert [t for t, _ in solo] == sorted(t for t, _ in solo)

    def test_process_at_matches_a_leading_sleep(self):
        sim = Simulator()
        trace = []

        def job():
            trace.append(sim.now)
            yield 2.0
            trace.append(sim.now)

        finished = []
        Process(sim, job(), delay=3.0, done=lambda: finished.append(sim.now))
        sim.run()
        assert trace == [3.0, 5.0]
        assert finished == [5.0]

    def test_process_at_is_cheaper_than_a_leading_sleep(self):
        # Delayed start + completion: 2 events.  The equivalent
        # `yield d` process costs 3 (start, wake-up, completion) — the
        # saving that makes million-request arrival scheduling cheap.
        fast = Simulator()
        process_at(fast, 1.0, _noop())
        fast.run()
        assert fast.events_processed == 2

        def waits(sim):
            yield 1.0

        slow = Simulator()
        slow.process(waits(slow))
        slow.run()
        assert slow.events_processed == 3

    def test_negative_delay_rejected(self):
        for delay in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="non-negative"):
                process_at(Simulator(), delay, _noop())
            with pytest.raises(ValueError, match="non-negative"):
                Simulator().process_batch([(delay, _noop())])

    def test_batch_interleaves_with_existing_events(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("early"))
        sim.process_batch([(1.0, _noop())])
        sim.schedule(1.0, lambda: order.append("late"))
        sim.run()
        assert order == ["early", "late"]
        assert sim.now == 1.0


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
        sim.process(sleeper())
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
