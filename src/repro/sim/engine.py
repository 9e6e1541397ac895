"""Discrete-event simulation kernel: :class:`Process` and :class:`Simulator`.

The analytical models answer "how long does *one* prediction take"; the
simulator answers what happens when *many* predictions contend for the PS
core, the AXI bus and the PL accelerators.  This module is the substrate: a
minimal, deterministic event-queue kernel in the style of SimPy (and of the
propagation loop in fmdtools), with exactly the two primitives the serving
models need:

* :class:`Process` — a Python generator driven by the simulator.  Each
  ``yield`` is a bare delay (a ``float`` ``d``: sleep ``d`` seconds) or
  :data:`PARK` (sleep until some other party calls :meth:`Simulator.wake`
  on it); either way the generator resumes with ``None``.  When the
  generator returns, the process posts its ``done`` callable at the
  current time — the one way a process hands control to whoever waits on
  it.
* :class:`Simulator` — the clock and the event queue.  Entries are ordered
  by ``(time, insertion sequence)``: the clock never moves backwards, and
  ties fire in FIFO order, which is what makes runs bit-reproducible (the
  hypothesis suite in ``tests/sim/test_engine.py`` pins both properties).

Every queue entry is a zero-argument callable: a process (calling it
resumes it) or a plain function posted by :meth:`Simulator.schedule` or as
a process's ``done``.  :meth:`Simulator.run` pops, counts and calls.  There
are no event objects, interrupts, failure values or real-time pacing:
every serving scenario in :mod:`repro.sim` is expressible with sleeps,
parks, timed callbacks and countdowns over ``done``, and a small kernel is
a fast one (see ``benchmarks/bench_sim_throughput.py``).

**Kernel contract:** speed work on this module may make each queue entry
cheaper, but for a given model the heap must receive the same entries at
the same times in the same insertion order — none fused, dropped or added,
zero-delay hops included.  Ties fire FIFO by insertion sequence, so a moved
entry can reorder same-instant events and change a report.  The entries
are those of the event-object kernel this one replaced, at the same
``(time, seq)``: a sleep stands where a timeout stood, a wake where a
single-waiter event's trigger stood, a process's ``done`` where its
completion event stood, and a scheduled callable where its timer stood.
``tests/sim/test_kernel_oracle.py`` checks this against a reference copy
of that kernel.

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
from itertools import count
from typing import Callable, Generator, List, Optional, Sequence

__all__ = ["PARK", "Process", "Simulator"]

_heappush = heapq.heappush
_INF = float("inf")

#: Yielded by a process to sleep until :meth:`Simulator.wake` is called on it.
PARK = object()


def _nothing() -> None:
    """The default ``done`` of a process: its completion entry does nothing."""


class Process:
    """A generator-based process; calling it resumes the generator.

    The process itself is its start entry on the queue, and so is every
    later wake-up entry of a bare-delay yield or a :meth:`Simulator.wake`.
    ``delay`` schedules that first resume at ``now + delay`` instead of
    "now" — one queue entry where a start entry and a first sleep would
    cost two (the request-spawning fast path).  ``done`` is posted at the
    instant the generator returns.  ``_sink``, when given, collects the
    start entry instead of pushing it (the bulk scheduling hook of
    :meth:`Simulator.process_batch`).
    """

    __slots__ = ("sim", "generator", "done")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator,
        delay: float = 0.0,
        done: Callable[[], None] = _nothing,
        _sink: Optional[List] = None,
    ) -> None:
        if not 0.0 <= delay < _INF:
            raise ValueError(f"process start delay must be non-negative and finite (got {delay})")
        self.sim = sim
        self.generator = generator
        self.done = done
        # Kick off at the scheduled time (FIFO-ordered with everything else
        # scheduled for that instant), not synchronously inside the caller.
        entry = (sim.now + delay, next(sim._seq), self)
        if _sink is None:
            _heappush(sim._heap, entry)
        else:
            _sink.append(entry)

    def __call__(self) -> None:
        sim = self.sim
        sim.active_process = self
        try:
            target = next(self.generator)
        except StopIteration:
            sim.active_process = None
            _heappush(sim._heap, (sim.now, next(sim._seq), self.done))
            return
        sim.active_process = None
        if isinstance(target, float):
            # A bare delay: the process is its own wake-up entry.
            if not 0.0 <= target < _INF:
                raise ValueError(
                    f"process slept {target!r} s; a delay must be non-negative and finite"
                )
            _heappush(sim._heap, (sim.now + target, next(sim._seq), self))
        elif target is not PARK:
            raise TypeError(
                f"process yielded {target!r}; processes must yield float delays or PARK"
            )


class Simulator:
    """The event queue and the simulated clock.

    ``now`` only moves forward, and entries scheduled for the same instant
    fire in the order they were scheduled (a global insertion sequence breaks
    ties), so a simulation is a pure function of its inputs.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self.events_processed: int = 0
        #: The process whose generator is running; ``None`` between steps.
        self.active_process: Optional[Process] = None
        self._heap: List = []
        self._seq = count()

    # -- scheduling --------------------------------------------------------------------

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def process_batch(self, pairs: Sequence) -> None:
        """Spawn many delayed processes with one bulk heap rebuild.

        ``pairs`` is an iterable of ``(delay, generator)``.  Start entries
        are collected and the heap is rebuilt once (O(n + heap) instead of n
        pushes at O(log) each) — the event-batching entry point the runner
        uses to schedule whole arrival processes.  Sequence numbers are
        drawn in input order, so FIFO tie-breaking is identical to spawning
        the processes one by one.
        """

        entries: List = []
        for delay, gen in pairs:
            Process(self, gen, delay, _sink=entries)
        if entries:
            self._heap.extend(entries)
            heapq.heapify(self._heap)

    def wake(self, process: Process) -> None:
        """Resume a process parked on :data:`PARK` at the current time.

        One queue entry, the process itself: it fires FIFO after everything
        already queued for this instant.  Wake a parked process once; a
        second wake before it parks again resumes it early.
        """

        _heappush(self._heap, (self.now, next(self._seq), process))

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` at ``now + delay`` (a one-shot timed callback).

        The hook the fault injector uses: a fault mode's injection and
        clearing are ordinary entries on the one queue, so they interleave
        deterministically with every other entry (FIFO tie-break included)
        and keep fault runs bit-reproducible.
        """

        if not 0.0 <= delay < _INF:
            raise ValueError(f"schedule delay must be non-negative and finite (got {delay})")
        _heappush(self._heap, (self.now + delay, next(self._seq), fn))

    # -- execution ---------------------------------------------------------------------

    def run(self) -> None:
        """Call queue entries until the queue is empty.

        Popping an entry advances the clock to it; the entry is then called
        (a process resumes, a callable runs).  Local bindings throughout:
        this is the hottest code in the whole package (see
        ``benchmarks/bench_sim_throughput.py``), and the heap invariant
        guarantees the clock never moves backwards.
        """

        heap = self._heap
        pop = heapq.heappop
        processed = self.events_processed
        try:
            while heap:
                self.now, _, entry = pop(heap)
                processed += 1
                entry()
        finally:
            self.events_processed = processed
