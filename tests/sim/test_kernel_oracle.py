"""Differential test of the event kernel against its reference copy.

``reference_engine.py`` is the kernel as it stood before its per-event
costs were cut; it is kept here, unchanged, as the oracle for the order
contract: the optimised kernel must fire the same events at the same
simulated times in the same order, and count the same number of them.
Random programs force ties (a small delay grid with 0 and repeats) and mix
every kernel feature: timeouts, bare events, processes waiting on
processes, ``all_of`` joins (some over already-processed events),
``schedule`` and ``add_callback`` on already-processed events.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import engine

import reference_engine

DELAYS = st.sampled_from((0.0, 0.0, 0.5, 1.0, 1.0, 2.5))
INDEX = st.integers(min_value=0, max_value=50)

# One wait of a process, or a side effect it performs between waits.
# ``history`` indices address every event created so far in the run (so a
# join or a callback may land on an event that has already fired).
LEAF = st.one_of(
    st.tuples(st.just("timeout"), DELAYS),
    st.tuples(st.just("event"), DELAYS),
    st.tuples(st.just("succeed"), st.just(0.0)),
    st.tuples(st.just("history"), INDEX),
    st.tuples(st.just("callback"), INDEX),
    st.tuples(st.just("schedule"), DELAYS),
)
PART = st.one_of(st.tuples(st.just("timeout"), DELAYS), st.tuples(st.just("history"), INDEX))
STEP = st.one_of(
    LEAF,
    st.tuples(st.just("child"), st.lists(LEAF, max_size=4)),
    st.tuples(st.just("all_of"), st.lists(PART, max_size=4)),
)
PROCESS = st.tuples(
    st.sampled_from(("process", "at", "batch")), DELAYS, st.lists(STEP, max_size=6)
)
PROGRAM = st.tuples(
    st.lists(PROCESS, min_size=1, max_size=8),
    st.lists(INDEX, max_size=4),  # callbacks added after the first run
)


def run_program(kernel, program):
    """Run ``program`` on ``kernel``; return its ``(now, tag)`` trace and count."""

    processes, late_callbacks = program
    sim = kernel.Simulator()
    trace = []
    history = []

    def record(tag):
        return lambda value=None: trace.append((sim.now, tag, repr(value)))

    def pick(index):
        return history[index % len(history)] if history else None

    def wait_for(step, tag):
        kind, arg = step
        if kind == "timeout":
            event = sim.timeout(arg)
        elif kind == "event":
            event = kernel.Event(sim)
            sim.schedule(arg, lambda: event.succeed(tag))
        elif kind == "succeed":
            event = kernel.Event(sim).succeed(tag)
        elif kind == "history":
            event = pick(arg)
        elif kind == "child":
            event = sim.process(body(arg, f"{tag}/"))
        elif kind == "all_of":
            parts = [wait_for(part, f"{tag}.{k}") for k, part in enumerate(arg)]
            event = sim.all_of([part for part in parts if part is not None])
        else:
            return None
        history.append(event)
        return event

    def body(steps, tag):
        for k, step in enumerate(steps):
            name = f"{tag}{k}"
            kind, arg = step
            if kind == "callback":
                if pick(arg) is not None:
                    pick(arg).add_callback(record(name))
                continue
            if kind == "schedule":
                sim.schedule(arg, record(name))
                continue
            event = wait_for(step, name)
            if event is None:
                continue
            value = yield event
            trace.append((sim.now, name, repr(value)))
        return tag

    batch = []
    for p, (spawn, delay, steps) in enumerate(processes):
        gen = body(steps, f"p{p}:")
        if spawn == "process":
            history.append(sim.process(gen))
        elif spawn == "at":
            history.append(kernel.Process(sim, gen, delay=delay))
        else:
            batch.append((delay, gen))
    history.extend(sim.process_batch(batch))
    sim.run()
    for k, index in enumerate(late_callbacks):
        pick(index).add_callback(record(f"late{k}"))
    sim.run()
    return trace, sim.events_processed


@settings(max_examples=300, deadline=None)
@given(PROGRAM)
def test_kernel_matches_the_reference_event_for_event(program):
    assert run_program(engine, program) == run_program(reference_engine, program)
