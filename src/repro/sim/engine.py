"""Discrete-event simulation kernel: :class:`Event`, :class:`Process`, :class:`Simulator`.

The analytical models answer "how long does *one* prediction take"; the
simulator answers what happens when *many* predictions contend for the PS
core, the AXI bus and the PL accelerators.  This module is the substrate: a
minimal, deterministic event-queue kernel in the style of SimPy (and of the
propagation loop in fmdtools), with exactly the three primitives the serving
models need:

* :class:`Event` — a one-shot occurrence carrying an optional value.  Other
  parties register callbacks; :meth:`Event.succeed` schedules the firing at
  the current simulated time.
* :class:`Process` — a Python generator driven by the simulator.  Each
  ``yield`` hands back an event to wait for (a :class:`Timeout`, a resource
  grant, another process); the generator resumes with the event's value when
  it fires.  A process is itself an event that succeeds with the generator's
  return value, so processes can wait on each other.
* :class:`Simulator` — the clock and the event queue.  Events are ordered by
  ``(time, insertion sequence)``: the clock never moves backwards, and ties
  fire in FIFO order, which is what makes runs bit-reproducible (the
  hypothesis suite in ``tests/sim/test_engine.py`` pins both properties).

The kernel is intentionally tiny — no interrupts, no event failure values,
no real-time pacing — because every serving scenario in :mod:`repro.sim` is
expressible with timeouts, FIFO resources and ``all_of`` joins, and a small
kernel is a fast one (see ``benchmarks/bench_sim_throughput.py``).

**Kernel contract:** speed work on this module may make each queue entry
cheaper, but for a given model the heap must receive the same entries at
the same times in the same insertion order — none fused, dropped or added,
zero-delay hops included.  Ties fire FIFO by insertion sequence, so a moved
entry can reorder same-instant events and change a report.
``tests/sim/test_kernel_oracle.py`` checks this against a reference copy
of the kernel.

**Model contract:** the serving model (:mod:`~repro.sim.resources`,
:mod:`~repro.sim.policies`, :mod:`~repro.sim.runner`) may post fewer
entries — e.g. book a free resource in line rather than wait on a grant
that fires at the same instant — only when every report field other than
``events_processed`` stays bit-identical, as
``tests/sim/test_report_identity.py`` pins against a fixture generated
before such a change; the goldens then differ only in their ``[engine]``
line.  A dropped zero-delay hop runs its continuation earlier within its
instant, so where two chains meet at exactly the same float time the tie
can resolve differently: the pinned runs are the evidence, not a proof
over every input.
"""

from __future__ import annotations

import heapq
from functools import partial
from itertools import count
from typing import Callable, Generator, List, Optional, Sequence

__all__ = ["Event", "Timeout", "Process", "Simulator"]

_heappush = heapq.heappush
_INF = float("inf")


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; :meth:`succeed` marks it triggered and puts it
    on the queue at the current time; when the simulator pops it, it becomes
    *processed* and its callbacks run (in registration order) with the
    event's value.  A processed event's ``callbacks`` is ``None``.
    """

    __slots__ = ("sim", "callbacks", "triggered", "_value")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[List[Callable[[object], None]]] = []
        self.triggered = False
        self._value: object = None

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event; it fires at the current simulated time."""

        if self.triggered:
            raise RuntimeError("event already triggered")
        self.triggered = True
        self._value = value
        sim = self.sim
        _heappush(sim._heap, (sim.now, next(sim._seq), self))
        return self

    def add_callback(self, fn: Callable[[object], None]) -> None:
        """Run ``fn(value)`` when the event fires.

        Registering on an already-processed event still works: the callback
        fires at the current time (a fresh queue entry), so waiting on e.g. a
        process that already finished does not deadlock.
        """

        if self.callbacks is None:
            late = Event(self.sim)
            late.callbacks.append(fn)
            late.succeed(self._value)
        else:
            self.callbacks.append(fn)


class Timeout(Event):
    """An event that fires a fixed delay after its creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float) -> None:
        if not 0.0 <= delay < _INF:
            raise ValueError(f"timeout delay must be non-negative and finite (got {delay})")
        # Event's slots are set here, not via super().__init__ (one frame less).
        self.sim = sim
        self.callbacks = []
        self.triggered = True
        self._value = None
        self.delay = delay
        _heappush(sim._heap, (sim.now + delay, next(sim._seq), self))


class Process(Event):
    """A generator-based process; also the event of its own completion.

    The process itself is its start entry on the queue: :meth:`Simulator.run`
    resumes a popped, untriggered process instead of firing it (a triggered
    one is its completion).  ``delay`` schedules that first resume at
    ``now + delay`` instead of "now" — one queue entry where a start entry
    and a first-yield timeout would cost two (the request-spawning fast
    path).  ``_sink``, when given, collects the start entry instead of
    pushing it (the bulk scheduling hook of :meth:`Simulator.process_batch`).
    """

    __slots__ = ("generator",)

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator,
        delay: float = 0.0,
        _sink: Optional[List] = None,
    ) -> None:
        if not 0.0 <= delay < _INF:
            raise ValueError(f"process start delay must be non-negative and finite (got {delay})")
        self.sim = sim
        self.callbacks = []
        self.triggered = False
        self._value = None
        self.generator = generator
        # Kick off at the scheduled time (FIFO-ordered with everything else
        # scheduled for that instant), not synchronously inside the caller.
        entry = (sim.now + delay, next(sim._seq), self)
        if _sink is None:
            _heappush(sim._heap, entry)
        else:
            _sink.append(entry)

    def _resume(self, value: object) -> None:
        try:
            target = self.generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise TypeError(
                f"process yielded {target!r}; processes must yield Event objects"
            )
        callbacks = target.callbacks
        if callbacks is None:
            target.add_callback(self._resume)
        else:
            callbacks.append(self._resume)


def _join(done: Event, values: List, remaining: List[int], index: int, value: object) -> None:
    """One constituent of :meth:`Simulator.all_of` fired."""

    values[index] = value
    remaining[0] -= 1
    if not remaining[0]:
        done.succeed(values)


class Simulator:
    """The event queue and the simulated clock.

    ``now`` only moves forward, and events scheduled for the same instant
    fire in the order they were scheduled (a global insertion sequence breaks
    ties), so a simulation is a pure function of its inputs.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self.events_processed: int = 0
        self._heap: List = []
        self._seq = count()

    # -- scheduling --------------------------------------------------------------------

    def timeout(self, delay: float) -> Timeout:
        return Timeout(self, delay)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def process_batch(self, pairs: Sequence) -> List[Process]:
        """Spawn many delayed processes with one bulk heap rebuild.

        ``pairs`` is an iterable of ``(delay, generator)``.  Start entries
        are collected and the heap is rebuilt once (O(n + heap) instead of n
        pushes at O(log) each) — the event-batching entry point the runner
        uses to schedule whole arrival processes.  Sequence numbers are
        drawn in input order, so FIFO tie-breaking is identical to spawning
        the processes one by one.
        """

        entries: List = []
        procs = [Process(self, gen, delay, _sink=entries) for delay, gen in pairs]
        if entries:
            self._heap.extend(entries)
            heapq.heapify(self._heap)
        return procs

    def schedule(self, delay: float, fn: Callable[[], None]) -> Timeout:
        """Run ``fn()`` at ``now + delay`` (a one-shot timed callback).

        The hook the fault injector uses: a fault mode's injection and
        clearing are ordinary timed events on the one queue, so they
        interleave deterministically with every other event (FIFO tie-break
        included) and keep fault runs bit-reproducible.
        """

        timed = self.timeout(delay)
        timed.add_callback(lambda _value: fn())
        return timed

    def all_of(self, events: Sequence[Event]) -> Event:
        """An event firing once every given event has fired.

        Its value is the list of the constituent values in input order
        (events already processed contribute one queue entry later, like
        any late callback).
        """

        done = Event(self)
        events = list(events)
        if not events:
            done.succeed([])
            return done
        values: List[object] = [None] * len(events)
        remaining = [len(events)]
        for i, event in enumerate(events):
            event.add_callback(partial(_join, done, values, remaining, i))
        return done

    # -- execution ---------------------------------------------------------------------

    def run(self) -> None:
        """Fire events until the queue is empty.

        Popping an entry advances the clock to it.  A triggered event is
        marked processed and its callbacks run in registration order; an
        untriggered one is a process's start entry and resumes it.  Local
        bindings throughout: this is the hottest code in the whole package
        (see ``benchmarks/bench_sim_throughput.py``), and the heap invariant
        guarantees the clock never moves backwards.
        """

        heap = self._heap
        pop = heapq.heappop
        processed = self.events_processed
        try:
            while heap:
                self.now, _, event = pop(heap)
                processed += 1
                if event.triggered:
                    callbacks = event.callbacks
                    event.callbacks = None
                    value = event._value
                    for fn in callbacks:
                        fn(value)
                else:
                    event._resume(None)
        finally:
            self.events_processed = processed
