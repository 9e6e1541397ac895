"""Discrete-event simulation kernel: :class:`Process` and :class:`Simulator`.

The analytical models answer "how long does *one* prediction take"; the
simulator answers what happens when *many* predictions contend for the PS
core, the AXI bus and the PL accelerators.  This module is the substrate: a
minimal, deterministic event-queue kernel in the style of SimPy (and of the
propagation loop in fmdtools), with exactly the two primitives the serving
models need:

* :class:`Process` — a Python generator driven by the simulator, started
  at the current instant by ``Process(sim, generator, done=None)`` (or at
  its arrival time, from the arrivals passed to :meth:`Simulator.run`).
  Each ``yield`` is a bare delay (a ``float`` ``d``: sleep ``d`` seconds)
  or :data:`PARK` (sleep until some other party calls
  :meth:`Simulator.wake` on it); either way the generator resumes with
  ``None``.  When the generator returns, the process posts its ``done``
  callable at the current time, if it has one — the one way a process
  hands control to whoever waits on it.
* :class:`Simulator` — the clock and the event queue.  Entries are ordered
  by ``(time, insertion sequence)``: the clock never moves backwards, and
  ties fire in FIFO order, which is what makes runs bit-reproducible (the
  hypothesis suite in ``tests/sim/test_engine.py`` pins both properties).

Every queue entry is a process or a zero-argument callable (a plain
function posted by :meth:`Simulator.schedule` or as a process's ``done``).
:meth:`Simulator.run` takes and counts each entry, resumes a process
itself (``next`` on its generator, with no call frame per entry) and calls
anything else.  There are no event objects, interrupts, failure values or real-time pacing:
every serving scenario in :mod:`repro.sim` is expressible with sleeps,
parks, timed callbacks and countdowns over ``done``, and a small kernel is
a fast one (see ``benchmarks/bench_sim_throughput.py``).

The queue is three structures that share one ``(time, seq)`` order:

* the **arrival stream** — the ``(time, generator)`` pairs passed to
  :meth:`Simulator.run`, started as processes and sorted once into a list
  that lives only for that run, which reads it by index and clears each
  slot as it reads it;
* the **zero-delay lane** — a FIFO of every entry posted for the current
  instant (a new process, a wake, a finished process's ``done``, a
  ``yield 0.0``, a zero-delay schedule, an arrival at the instant ``run()``
  starts, and a positive delay the clock absorbs, ``now + d == now``),
  which needs no sequence numbers;
* the **heap** — every other entry.

An entry made at the current instant for the current instant always goes
to the lane, and the arrivals draw their sequence numbers when ``run()``
starts, so every heap or stream entry at ``now`` was posted earlier than
every lane entry.  ``run()`` therefore fires the heap and stream entries
at ``now`` first (merged by ``(time, seq)``), drains the lane only when
neither holds an entry at ``now``, and once the lane is empty moves the
clock to the earlier of the heap top and the stream head.

**Kernel contract:** speed work on this module may make each queue entry
cheaper, but for a given model the queue must receive the same entries at
the same times in the same insertion order — none fused, dropped or added,
zero-delay hops included — and fire them in ``(time, insertion order)``
order, whichever of the three structures holds them.  Ties fire FIFO by
insertion order, so a moved entry can reorder same-instant events and
change a report.  The entries are those of the event-object kernel this
one replaced, at the same ``(time, seq)``: a sleep stands where a timeout
stood, a wake where a single-waiter event's trigger stood, a process's
``done`` where its completion event stood, and a scheduled callable where
its timer stood.  The one exception: a process without ``done`` posts no
completion entry, where that kernel fired a completion event with no
callback (nothing observed it, so dropping it moves no other entry).
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
from collections import deque
from itertools import count
from typing import Callable, Generator, Iterable, List, Optional, Tuple

__all__ = ["PARK", "Process", "Simulator"]

_heappush = heapq.heappush
_INF = float("inf")
#: Stands for the stream head once the stream is used up: later than any entry.
_END = (_INF, 0, None)
#: Makes a :class:`Process` without queueing it: an arrival's start entry is
#: its stream slot (or its lane entry), placed by :meth:`Simulator.run`.
_unposted = object.__new__

#: Yielded by a process to sleep until :meth:`Simulator.wake` is called on it.
PARK = object()


class Process:
    """A generator-based process, resumed by :meth:`Simulator.run`.

    Constructing a process queues it at the current instant, FIFO after
    everything already queued for that instant: the process itself is its
    start entry, and every later wake-up entry of a bare-delay yield or a
    :meth:`Simulator.wake`.  ``done``, if given, is posted at the instant
    the generator returns; a process without one posts nothing then.
    """

    __slots__ = ("sim", "generator", "done")

    def __init__(
        self, sim: "Simulator", generator: Generator, done: Optional[Callable[[], None]] = None
    ) -> None:
        self.sim = sim
        self.generator = generator
        self.done = done
        sim._lane.append(self)


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
        #: Entries for the current instant, in insertion order.
        self._lane: deque = deque()
        self._seq = count()

    # -- scheduling --------------------------------------------------------------------

    def wake(self, process: Process) -> None:
        """Resume a process parked on :data:`PARK` at the current time.

        One queue entry, the process itself: it fires FIFO after everything
        already queued for this instant.  Wake a parked process once; a
        second wake before it parks again resumes it early.
        """

        self._lane.append(process)

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` at ``now + delay`` (a one-shot timed callback).

        The hook the fault injector uses: a fault mode's injection and
        clearing are ordinary entries on the one queue, so they interleave
        deterministically with every other entry (FIFO tie-break included)
        and keep fault runs bit-reproducible.  ``delay`` is converted with
        ``float()``, so a NumPy scalar never reaches the clock.
        """

        if not 0.0 <= delay < _INF:
            raise ValueError(f"schedule delay must be non-negative and finite (got {delay})")
        time = self.now + float(delay)
        if time == self.now:
            self._lane.append(fn)
        else:
            _heappush(self._heap, (time, next(self._seq), fn))

    # -- execution ---------------------------------------------------------------------

    def run(self, arrivals: Iterable[Tuple[float, Generator]] = ()) -> None:
        """Start a process per arrival and call queue entries until the queue
        is empty.

        ``arrivals`` are ``(time, generator)`` pairs, each started at its
        ``time`` (not before ``now``, finite; converted with ``float()``)
        with no ``done``.  Sequence numbers are drawn in input order, so FIFO
        tie-breaking is that of spawning them one by one in that order; the
        ones at ``now`` join the lane, the rest become the arrival stream,
        sorted once by ``(time, seq)`` (the runner's arrivals come in time
        order, so one linear pass; sorting the tuples themselves allocates
        no key array, and the unique seq settles every tie before a process
        is compared).

        Each step takes the earlier of the heap top and the stream head by
        ``(time, seq)``.  If that entry is later than ``now``, the lane is
        drained first; otherwise the clock moves to it (it never moves
        backwards: an entry is posted no earlier than ``now``) and it fires.
        Lane, heap and stream entries fire at one site: a :class:`Process`
        is resumed in the loop itself (``next`` on its generator, with
        :attr:`active_process` set around it) and its yield is booked there,
        :data:`PARK` first, then a float delay (a ``float`` subclass such as
        ``np.float64`` is converted with ``float()``); any other entry is
        called.  With :meth:`schedule` converting its delay too, ``now`` is
        a Python ``float`` whatever scalar types the caller passes, because
        NumPy scalar arithmetic in this loop and in every monitor integral
        reading ``now`` costs several times a float's.  Each stream slot is
        cleared as it is read, so a finished arrival process is not kept
        alive by the queue.  Local bindings throughout: this is the
        hottest code in the whole package (see
        ``benchmarks/bench_sim_throughput.py``).
        """

        heap = self._heap
        lane = self._lane
        pop = heapq.heappop
        take = lane.popleft
        now = self.now
        seq = self._seq
        stream: List = []
        for time, generator in arrivals:
            if not now <= time < _INF:
                raise ValueError(f"arrival time {time} must be finite and not before now ({now})")
            time = float(time)
            process = _unposted(Process)
            process.sim, process.generator, process.done = self, generator, None
            if time == now:
                lane.append(process)
            else:
                stream.append((time, next(seq), process))
        stream.sort()
        i, n = 0, len(stream)
        head = stream[0] if n else _END
        processed = self.events_processed
        draining = False
        while True:
            if draining and lane:
                entry = take()
            else:
                top = heap[0] if heap and heap[0] < head else head
                if lane and top[0] != now:
                    # Nothing timed is left at this instant: drain the lane.
                    # Its entries post only later entries or lane entries,
                    # so ``top`` stays later than ``now`` until it is empty.
                    draining = True
                    entry = take()
                else:
                    draining = False
                    if top is not head:
                        pop(heap)
                    elif i < n:
                        stream[i] = None
                        i += 1
                        head = stream[i] if i < n else _END
                    else:
                        break
                    now, _, entry = top
                    self.now = now
            processed += 1
            if type(entry) is not Process:
                entry()
                continue
            # Resume the process.  A bare delay makes it its own wake-up
            # entry: on the lane if the clock absorbs the delay, else on
            # the heap.
            self.active_process = entry
            try:
                target = next(entry.generator)
            except StopIteration:
                self.active_process = None
                if entry.done is not None:
                    lane.append(entry.done)
                continue
            self.active_process = None
            if target is PARK:
                continue
            if type(target) is not float:
                if not isinstance(target, float):
                    raise TypeError(
                        f"process yielded {target!r}; processes must yield float delays or PARK"
                    )
                target = float(target)
            if not 0.0 <= target < _INF:
                raise ValueError(
                    f"process slept {target!r} s; a delay must be non-negative and finite"
                )
            time = now + target
            if time == now:
                lane.append(entry)
            else:
                _heappush(heap, (time, next(seq), entry))
        self.events_processed = processed
