"""Resource primitives of the PS + PL serving system.

Transaction-level models of the pieces requests contend for:

* :class:`Resource` — a counted FIFO resource (the PS core pool is one, with
  ``capacity`` = cores).  Grants are strictly first-come-first-served, with
  ties broken by submission order, so simulations are deterministic.
* :class:`AxiBus` — the PS<->PL interconnect.  Each DMA burst occupies one of
  ``channels`` for the transfer time that the *same*
  :class:`~repro.fpga.axi.AxiTransferModel` the analytic latency model uses
  priced into the service plan, so a contention-free simulation reproduces
  the analytic numbers exactly and a loaded one shows genuine burst-level
  queueing.
* :class:`Accelerator` — one replicated PL ODEBlock instance.  It does not
  queue by itself (the :class:`~repro.sim.policies.Dispatcher` owns the
  queues); it carries the replica's busy-time and downtime accounting (the
  runner prices its fabric footprint for the energy model).

Every primitive keeps a :class:`LevelMonitor` — a time-weighted integral of
its occupancy/queue depth — which is what :mod:`repro.sim.metrics` turns into
utilisation and queue-depth statistics.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Generator, Iterable, Optional

from .._checks import check_count
from .engine import PARK, Process, Simulator

__all__ = ["LevelMonitor", "Resource", "AxiBus", "Accelerator"]


class LevelMonitor:
    """Time-weighted statistics of an integer level (occupancy, queue depth)."""

    __slots__ = ("sim", "_level", "_since", "integral", "peak")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._level = 0
        self._since = sim.now
        self.integral = 0.0
        self.peak = 0

    @property
    def level(self) -> int:
        return self._level

    def set(self, level: int) -> None:
        now = self.sim.now
        self.integral += self._level * (now - self._since)
        self._since = now
        self._level = level
        if level > self.peak:
            self.peak = level

    def finalize(self, horizon: Optional[float] = None) -> float:
        """Close the integral at ``horizon`` (default: now) and return it."""

        end = self.sim.now if horizon is None else horizon
        self.integral += self._level * (end - self._since)
        self._since = end
        return self.integral

    def reading(self) -> float:
        """The integral up to *now*, without closing it (no mutation).

        Lets a probe process snapshot the monitor mid-run — the warm-up
        trimming of :mod:`repro.sim.metrics` reads every monitor at
        ``warmup_s`` and differences against the final integral.
        """

        return self.integral + self._level * (self.sim.now - self._since)


class Resource:
    """A counted resource with a strict-FIFO wait queue."""

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "resource") -> None:
        self.sim = sim
        self.capacity = check_count("capacity", capacity, 1)
        self.name = name
        self.users = 0
        self._waiting: Deque[Process] = deque()
        self.busy = LevelMonitor(sim)
        self.queue_depth = LevelMonitor(sim)

    def try_acquire(self) -> bool:
        """Book a free unit now, if there is one; ``False`` means contended.

        A free unit means nobody waits (:meth:`release` hands a unit straight
        to the next waiter), so booking it in line keeps grants strictly
        FIFO.  The requester carries on at once instead of waiting on a
        grant that would fire at the same instant: the serving hot paths
        (:meth:`use` and the runner's PS segments) call this first and fall
        back to :meth:`enqueue` only when contended.
        """

        if self.users < self.capacity:
            self.users += 1
            self.busy.set(self.users)
            return True
        return False

    def enqueue(self) -> None:
        """Queue the running process for a unit; it then yields :data:`PARK`.

        The contended path, after :meth:`try_acquire` failed:
        :meth:`release` or :meth:`set_capacity` hands the process its unit
        and wakes it.
        """

        waiter = self.sim.active_process
        if waiter is None:
            raise RuntimeError("Resource.enqueue must be called from inside a process")
        self._waiting.append(waiter)
        self.queue_depth.set(len(self._waiting))

    def set_capacity(self, capacity: int) -> None:
        """Resize the unit pool mid-run (the PS-core-loss fault hook).

        Shrinking never preempts: current users finish their holds, and the
        pool drains down to the new capacity as they release.  Growing hands
        the freed units straight to the longest-waiting processes.
        """

        self.capacity = check_count("capacity", capacity, 1)
        while self._waiting and self.users < self.capacity:
            self.users += 1
            self.busy.set(self.users)
            waiter = self._waiting.popleft()
            self.queue_depth.set(len(self._waiting))
            self.sim.wake(waiter)

    def release(self) -> None:
        """Return one unit; the longest-waiting process (if any) gets it."""

        if self.users <= 0:
            raise RuntimeError(f"release of idle resource '{self.name}'")
        if self._waiting and self.users <= self.capacity:
            # Hand the unit straight to the next waiter: occupancy stays
            # constant and the waiter resumes at the current time, after any
            # entry already queued "now" (FIFO tie-break).  (The users check
            # only bites after a mid-run capacity shrink, when over-capacity
            # holds must drain instead of being handed on.)
            waiter = self._waiting.popleft()
            self.queue_depth.set(len(self._waiting))
            self.sim.wake(waiter)
        else:
            self.users -= 1
            self.busy.set(self.users)

    def use(self, seconds: float) -> Generator:
        """Process fragment: acquire one unit, hold it, release it.

        The hold is a bare delay (the process is its own wake-up entry).
        """

        if not self.try_acquire():
            self.enqueue()
            yield PARK
        yield seconds
        self.release()


class AxiBus(Resource):
    """The PS<->PL AXI interconnect: ``channels`` concurrent DMA bursts."""

    def __init__(self, sim: Simulator, channels: int = 1) -> None:
        super().__init__(sim, capacity=channels, name="axi")
        self.words_moved = 0
        self.transfers = 0
        #: Multiplier on every burst's transfer time (1.0 = nominal).  The
        #: AXI-degradation fault mode sets this to the ratio of degraded to
        #: nominal cycles-per-word (see ``repro.faults.modes.AxiDegradation``).
        self.slowdown = 1.0

    def degrade(self, slowdown: float) -> None:
        """Set the burst-time multiplier.

        The AXI-degradation fault mode sets the product of the slowdown
        factors in force, so 1.0 again once none is.
        """

        if slowdown <= 0:
            raise ValueError(f"slowdown must be positive (got {slowdown})")
        self.slowdown = slowdown

    def transfer(self, words: int, seconds: float) -> Iterable[object]:
        """Process fragment: move ``words`` over the bus (one DMA burst).

        Books the burst when called and returns the :meth:`use` fragment
        holding a channel for it; callers ``yield from`` it at once.

        ``seconds`` is the burst's nominal time, priced by the model that
        built the service plan (the dispatcher passes the
        :class:`PlExecution`'s stored transfer times, keeping the simulated
        DMA and the analytic decomposition consistent by construction).
        Zero-word transfers complete immediately
        without touching the bus, as
        :func:`repro.fpga.axi.transfer_cycles_kernel` prices them at zero
        cycles.
        """

        if words == 0:
            return ()
        self.words_moved += words
        self.transfers += 1
        if self.slowdown != 1.0:
            seconds = seconds * self.slowdown
        return self.use(seconds)

    def as_dict(self) -> Dict[str, float]:
        return {
            "channels": self.capacity,
            "transfers": self.transfers,
            "words_moved": self.words_moved,
        }


class Accelerator:
    """One PL ODEBlock replica (busy and downtime accounting)."""

    def __init__(self, sim: Simulator, index: int) -> None:
        self.index = index
        self.name = f"pl{index}"
        self.busy = LevelMonitor(sim)
        # Downtime accounting for the replica-death fault mode: level 1 while
        # the replica is dead, so the integral is seconds of downtime (the
        # energy model credits back the dead replica's PL power draw).
        self.down = LevelMonitor(sim)
