"""Differential test of the event kernel against its reference copy.

``reference_engine.py`` is the kernel as it stood before its per-event
costs were cut, with event objects; it is kept here, unchanged, as the
oracle for the order contract: the kernel must fire the same entries at
the same simulated times in the same order, and count the same number of
them.  Random programs force ties (a small delay grid with 0 and repeats),
spawn processes one by one, delayed and in several ``process_batch``
calls (some from inside a running process), and call ``run()`` again
after the queue drained.

The kernel has no event objects, so each step of a program runs on the
two kernels as follows (the reference side keeps its events):

============================  ==========================================
reference                     kernel
============================  ==========================================
``yield sim.timeout(d)``      ``yield d``
succeed an event, wait on it  ``yield 0.0``
event succeeded by a timer    park + ``schedule(d, wake)``
wait on a parked event        park; another process wakes it
wait on a child process       child with ``done=parent``; the parent parks
``all_of`` over timeouts      a countdown over ``schedule`` parts that
                              wakes the parent (none: wake it now)
============================  ==========================================
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import engine
from repro.sim.policies import _countdown

import reference_engine

DELAYS = st.sampled_from((0.0, 0.0, 0.5, 1.0, 1.0, 2.5))

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
    # A process_batch call from inside a running process.
    st.tuples(
        st.just("spawn"), st.lists(st.tuples(DELAYS, st.lists(LEAF, max_size=3)), max_size=3)
    ),
)
BODY = st.lists(STEP, max_size=6)
# What one round spawns before it calls run(): single processes (started
# now or after a delay) and batches.
GROUP = st.one_of(
    st.tuples(st.sampled_from(("process", "at")), DELAYS, BODY),
    st.tuples(st.just("batch"), st.lists(st.tuples(DELAYS, BODY), max_size=4)),
)
PROGRAM = st.lists(st.lists(GROUP, min_size=1, max_size=5), min_size=1, max_size=3)


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

    def spawn_batch(pairs, tag):
        sim.process_batch(
            [(delay, body(steps, f"{tag}{k}:")) for k, (delay, steps) in enumerate(pairs)]
        )

    def wait(kind, arg, tag):
        """The reference kernel's event for one waiting step."""

        if kind == "sleep":
            return sim.timeout(arg)
        if kind == "zero":
            return kernel.Event(sim).succeed()
        if kind == "child":
            return sim.process(body(arg, f"{tag}/"))
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
                spawn_batch(arg, f"{name}/")
            else:
                yield (native_wait if native else wait)(kind, arg, name)
                trace.append((sim.now, name))

    for r, groups in enumerate(program):
        for g, (kind, *spec) in enumerate(groups):
            tag = f"r{r}g{g}:"
            if kind == "batch":
                spawn_batch(spec[0], tag)
            elif kind == "process":
                sim.process(body(spec[1], tag))
            elif native:
                engine.Process(sim, body(spec[1], tag), delay=spec[0], done=record(f"{tag}end"))
            else:
                proc = kernel.Process(sim, body(spec[1], tag), delay=spec[0])
                proc.add_callback(record(f"{tag}end"))
        sim.run()
    return trace, sim.events_processed


@settings(max_examples=300, deadline=None)
@given(PROGRAM)
def test_kernel_matches_the_reference_event_for_event(program):
    assert run_program(engine, program) == run_program(reference_engine, program)
