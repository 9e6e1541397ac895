"""Property-based and unit tests of the discrete-event kernel.

The three load-bearing invariants (events fire in timestamp order, FIFO
tie-breaking, monotone clock) are pinned with hypothesis over arbitrary
delay sets — these are what make every simulation deterministic and
reproducible.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.engine import Event, Process, Timeout

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
        sim.timeout(d).add_callback(lambda _v, i=i: fired.append((sim.now, i)))
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
        sim.timeout(d).add_callback(lambda _v, i=i: fired.append((sim.now, i)))
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
        sim.timeout(d).add_callback(lambda _v: observed.append(sim.now))
    last = [0.0]

    sim.run()
    for now in observed:
        assert now >= last[0]
        last[0] = now
    assert sim.now == max(ds)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e3, allow_nan=False), min_size=1, max_size=20))
def test_process_timeout_chain_advances_by_sum(ds):
    sim = Simulator()

    def proc():
        for d in ds:
            yield sim.timeout(d)
        return "done"

    finished = []
    sim.process(proc()).add_callback(finished.append)
    sim.run()
    assert finished == ["done"]
    assert sim.now == pytest.approx(sum(ds))


class TestEvents:
    def test_negative_timeout_rejected(self):
        # A NaN or infinite time would corrupt the heap order or the clock.
        for delay in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="non-negative"):
                Simulator().timeout(delay)

    def test_event_fires_with_value(self):
        sim = Simulator()
        ev = Event(sim)
        seen = []
        ev.add_callback(seen.append)
        ev.succeed(42)
        sim.run()
        assert seen == [42]

    def test_double_succeed_rejected(self):
        sim = Simulator()
        ev = Event(sim)
        ev.succeed()
        with pytest.raises(RuntimeError, match="already triggered"):
            ev.succeed()

    def test_waiting_on_processed_event_still_fires(self):
        """A callback registered after the event fired runs (no deadlock)."""

        sim = Simulator()
        ev = Event(sim)
        ev.succeed("early")
        sim.run()
        assert ev.callbacks is None
        late = []
        ev.add_callback(late.append)
        sim.run()
        assert late == ["early"]

    def test_yielding_non_event_is_a_type_error(self):
        sim = Simulator()

        def bad():
            yield 3.0

        sim.process(bad())
        with pytest.raises(TypeError, match="must yield Event"):
            sim.run()


class TestProcesses:
    def test_process_waits_on_process(self):
        sim = Simulator()
        trace = []

        def child():
            yield sim.timeout(2.0)
            trace.append(("child", sim.now))
            return "payload"

        def parent():
            value = yield sim.process(child())
            trace.append(("parent", sim.now, value))

        sim.process(parent())
        sim.run()
        assert trace == [("child", 2.0), ("parent", 2.0, "payload")]

    def test_all_of_waits_for_every_event(self):
        sim = Simulator()
        results = []

        a, b = Event(sim), Event(sim)
        sim.schedule(3.0, lambda: a.succeed("a"))
        sim.schedule(1.0, lambda: b.succeed("b"))

        def proc():
            values = yield sim.all_of([a, b])
            results.append((sim.now, values))

        sim.process(proc())
        sim.run()
        assert results == [(3.0, ["a", "b"])]

    def test_all_of_empty_fires_immediately(self):
        sim = Simulator()
        fired = []
        sim.all_of([]).add_callback(fired.append)
        sim.run()
        assert fired == [[]]


def process_at(sim: Simulator, delay: float, generator) -> Process:
    """Spawn a process whose first resume happens at ``now + delay``.

    Equivalent to a process opening with ``yield sim.timeout(delay)`` but one
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

    def test_process_at_matches_a_leading_timeout(self):
        sim = Simulator()
        trace = []

        def job():
            trace.append(sim.now)
            yield sim.timeout(2.0)
            trace.append(sim.now)
            return "ok"

        finished = []
        process_at(sim, 3.0, job()).add_callback(finished.append)
        sim.run()
        assert trace == [3.0, 5.0]
        assert finished == ["ok"]

    def test_process_at_is_cheaper_than_a_timeout_chain(self):
        # Delayed start + completion: 2 events.  The equivalent
        # `yield timeout(d)` process costs 3 (start, timeout, completion) —
        # the saving that makes million-request arrival scheduling cheap.
        fast = Simulator()
        process_at(fast, 1.0, _noop())
        fast.run()
        assert fast.events_processed == 2

        def waits(sim):
            yield sim.timeout(1.0)

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
        sim.timeout(1.0).add_callback(lambda _v: order.append("timeout"))
        sim.process_batch([(1.0, _noop())])
        sim.schedule(1.0, lambda: order.append("late"))
        sim.run()
        assert order == ["timeout", "late"]
        assert sim.now == 1.0


class TestSchedule:
    def test_schedule_fires_a_callback_after_the_delay(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [3.0]

    def test_schedule_shares_the_fifo_queue(self):
        """A scheduled callback ties with a timeout in scheduling order."""

        sim = Simulator()
        order = []
        sim.timeout(1.0).add_callback(lambda _v: order.append("timeout"))
        sim.schedule(1.0, lambda: order.append("callback"))
        sim.run()
        assert order == ["timeout", "callback"]


class TestRunUntil:
    """``run`` drains the whole queue; the class name keeps its test ids."""

    def test_events_processed_counter(self):
        sim = Simulator()
        for d in (1.0, 2.0):
            sim.timeout(d)
        sim.run()
        assert sim.events_processed == 2
