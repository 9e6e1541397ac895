"""Differential test of the event kernel against its reference copy.

``reference_engine.py`` is the kernel as it stood before its per-event
costs were cut, with event objects; it is kept here, unchanged, as the
oracle for the order contract: the kernel must fire the same entries at
the same simulated times in the same order, and count the same number of
them.  Random programs force ties (a small delay grid with 0 and repeats, and
``1e-17``, a positive delay the clock absorbs once it has left 0), spawn
processes and schedule callbacks before ``run()``, pass one batch of
arrivals to ``run()``, and spawn, schedule and wake during the run.  A fixed
example puts zero-delay arrivals, spawns and ``schedule(0, ...)`` at the
instant of a pending stream head, so every path between the kernel's
arrival stream, zero-delay lane and heap is taken on every run.

The kernel has no event objects, so each step of a program runs on the
two kernels as follows (the reference side keeps its events):

================================  ======================================
reference                         kernel
================================  ======================================
``yield sim.timeout(d)``          ``yield d``
succeed an event, wait on it      ``yield 0.0``
event succeeded by a timer        park + ``schedule(d, wake)``
wait on a parked event            park; another process wakes it
wait on a child process           child with ``done=parent``; the
                                  parent parks
``all_of`` over timeouts          a countdown over ``schedule`` parts
                                  that wakes the parent (none: wake it
                                  now)
``Process(sim, gen, delay=t)``    ``(t, gen)`` among the arrivals
before ``run()``                  passed to ``run()``
completion event of a process     nothing: a process without ``done``
nothing waits on (no callback)    posts no completion entry
================================  ======================================

The last row is the one place the entries differ: the reference count is
compared less its callback-less completion events, so a kernel that drops
a ``done`` entry, or posts one for a process without ``done``, fails.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import engine
from repro.sim.policies import _countdown

import reference_engine

DELAYS = st.sampled_from((0.0, 0.0, 1e-17, 0.5, 1.0, 1.0, 2.5))

# One wait of a process, or a side effect it performs between waits.
LEAF = st.one_of(
    st.tuples(st.just("sleep"), DELAYS),
    st.tuples(st.just("zero"), st.just(0.0)),
    st.tuples(st.just("timed"), DELAYS),
    st.tuples(st.just("schedule"), DELAYS),
    st.tuples(st.just("park"), st.just(0.0)),
    # Wake the longest-parked process now, or from a timed callback.
    st.tuples(st.just("wake"), st.just(0.0)),
    st.tuples(st.just("wake_later"), DELAYS),
)
STEP = st.one_of(
    LEAF,
    st.tuples(st.just("child"), st.lists(LEAF, max_size=4)),
    st.tuples(st.just("all_of"), st.lists(DELAYS, max_size=4)),
    # Spawn processes now, or from a timed callback.
    st.tuples(st.just("spawn"), st.lists(st.lists(LEAF, max_size=3), max_size=3)),
    st.tuples(st.just("spawn_later"), st.tuples(DELAYS, st.lists(LEAF, max_size=3))),
)
BODY = st.lists(STEP, max_size=6)
# What a program queues before run(): processes and timed callbacks.
GROUP = st.one_of(
    st.tuples(st.just("process"), BODY),
    st.tuples(st.just("schedule"), DELAYS),
)
# The queued groups and the arrivals passed to run().
PROGRAM = st.tuples(
    st.lists(GROUP, max_size=4), st.lists(st.tuples(DELAYS, BODY), max_size=5)
)


def run_program(kernel, program):
    """Run ``program`` on ``kernel``; return its ``(now, tag)`` trace and count."""

    sim = kernel.Simulator()
    native = kernel is engine
    trace = []
    parked = []

    def record(tag):
        return lambda *_: trace.append((sim.now, tag))

    def wake_one():
        if parked:
            if native:
                sim.wake(parked.pop(0))
            else:
                parked.pop(0).succeed()

    # Processes nothing waits on: spawned ones and the arrivals.
    unobserved = []

    def spawn(steps, tag):
        unobserved.append(kernel.Process(sim, body(steps, tag)))

    def wait(kind, arg, tag):
        """The reference kernel's event for one waiting step."""

        if kind == "sleep":
            return sim.timeout(arg)
        if kind == "zero":
            return kernel.Event(sim).succeed()
        if kind == "child":
            return kernel.Process(sim, body(arg, f"{tag}/"))
        if kind == "all_of":
            return sim.all_of([sim.timeout(d) for d in arg])
        event = kernel.Event(sim)
        if kind == "timed":
            sim.schedule(arg, event.succeed)
        else:
            parked.append(event)
        return event

    def native_wait(kind, arg, tag):
        """Post the kernel's entries for one waiting step; return the yield."""

        me = sim.active_process
        if kind in ("sleep", "zero"):
            return arg
        if kind == "timed":
            sim.schedule(arg, lambda: sim.wake(me))
        elif kind == "park":
            parked.append(me)
        elif kind == "child":
            engine.Process(sim, body(arg, f"{tag}/"), done=me)
        elif not arg:  # an empty all_of
            sim.wake(me)
        else:
            arrive = _countdown(sim, me, len(arg))
            for delay in arg:
                sim.schedule(delay, arrive)
        return engine.PARK

    def body(steps, tag):
        for k, (kind, arg) in enumerate(steps):
            name = f"{tag}{k}"
            if kind == "schedule":
                sim.schedule(arg, record(name))
            elif kind == "wake":
                wake_one()
            elif kind == "wake_later":
                sim.schedule(arg, wake_one)
            elif kind == "spawn":
                for j, leaves in enumerate(arg):
                    spawn(leaves, f"{name}/{j}:")
            elif kind == "spawn_later":
                delay, leaves = arg
                sim.schedule(delay, lambda leaves=leaves, tag=f"{name}/": spawn(leaves, tag))
            else:
                yield (native_wait if native else wait)(kind, arg, name)
                trace.append((sim.now, name))

    groups, arrivals = program
    for g, (kind, arg) in enumerate(groups):
        if kind == "process":
            spawn(arg, f"g{g}:")
        else:
            sim.schedule(arg, record(f"g{g}:"))
    pairs = [(time, body(steps, f"a{k}:")) for k, (time, steps) in enumerate(arrivals)]
    if native:
        sim.run(pairs)
    else:
        for time, generator in pairs:
            unobserved.append(kernel.Process(sim, generator, delay=time))
        sim.run()
        # A process is processed once its completion event has fired.
        return trace, sim.events_processed - sum(p.processed for p in unobserved)
    return trace, sim.events_processed


# A process at 1.0 (queued first, so it fires before the arrivals at 1.0)
# spawns processes, schedules a zero-delay call and sleeps absorbed delays
# while the arrivals at 1.0 are still pending; two arrivals at 0 go to the
# lane behind the queued process and callback.
AT_A_STREAM_HEAD = (
    [
        ("process", [("sleep", 1.0), ("spawn", [[("sleep", 0.0)], []])]),
        ("schedule", 0.0),
        ("process", [
            ("sleep", 1.0),
            ("spawn", [[("sleep", 0.0)], [("zero", 0.0)]]),
            ("spawn_later", (0.0, [("sleep", 1e-17)])),
            ("schedule", 0.0),
            ("sleep", 1e-17),
            ("zero", 0.0),
        ]),
        ("schedule", 1.0),
    ],
    [
        (1.0, [("sleep", 0.0)]),
        (0.0, [("zero", 0.0)]),
        (1.0, [("park", 0.0)]),
        (1.0, [("wake", 0.0)]),
        (0.5, [("schedule", 0.0)]),
        (0.0, [("spawn_later", (1.0, []))]),
        (1e-17, []),
    ],
)


@settings(max_examples=300, deadline=None)
@given(PROGRAM)
@example(AT_A_STREAM_HEAD)
def test_kernel_matches_the_reference_event_for_event(program):
    assert run_program(engine, program) == run_program(reference_engine, program)


# One small fixed program per row of the mapping above (and per path into
# the lane), so each row is checked on every run whatever hypothesis draws.
ROWS = {
    "sleep": ([("process", [("sleep", 1.0), ("sleep", 0.0)]), ("schedule", 1.0)], []),
    "absorbed_sleep": (
        [("process", [("sleep", 1.0), ("sleep", 1e-17), ("zero", 0.0)]), ("schedule", 1.0)],
        [],
    ),
    "zero": ([("process", [("zero", 0.0), ("zero", 0.0)]), ("process", [("zero", 0.0)])], []),
    "timed": ([("process", [("timed", 1.0), ("timed", 0.0)]), ("schedule", 1.0)], []),
    "park_and_wake": (
        [("process", [("park", 0.0)]), ("process", [("wake", 0.0), ("sleep", 0.0)])],
        [],
    ),
    "wake_later": ([("process", [("park", 0.0)]), ("process", [("wake_later", 1.0)])], []),
    "child": (
        [("process", [("child", [("sleep", 1.0), ("zero", 0.0)]), ("sleep", 0.0)])],
        [],
    ),
    "all_of": ([("process", [("all_of", [1.0, 0.0, 1.0])]), ("schedule", 1.0)], []),
    "empty_all_of": ([("process", [("all_of", [])]), ("schedule", 0.0)], []),
    "arrivals": (
        [("schedule", 1.0)],
        [(1.0, [("sleep", 0.0)]), (0.0, [("zero", 0.0)]), (0.5, []), (1.0, [("zero", 0.0)])],
    ),
    "spawn": ([("process", [("spawn", [[("sleep", 1.0)], []]), ("sleep", 0.0)])], []),
    "spawn_later": (
        [("process", [("spawn_later", (1.0, [("zero", 0.0)]))]), ("schedule", 1.0)],
        [],
    ),
    "schedule": ([("process", [("schedule", 0.0), ("schedule", 1.0), ("sleep", 1.0)])], []),
}


@pytest.mark.parametrize("row", sorted(ROWS))
def test_each_mapping_row_matches_the_reference(row):
    trace, count = run_program(engine, ROWS[row])
    assert trace, f"{row}: the program recorded nothing"
    assert (trace, count) == run_program(reference_engine, ROWS[row])
