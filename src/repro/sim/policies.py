"""Serving policies: how PL block invocations are dispatched onto replicas.

The :class:`Dispatcher` owns the replicated PL accelerators and the queues in
front of them.  A policy is two values of its state: whether an invocation
is *pinned* to one replica's queue or joins the shared one, and how many
invocations an idle replica *drains* at once:

* ``fifo`` — one shared queue, any free replica serves the oldest waiting
  invocation (work-conserving, the baseline discipline).
* ``batched`` — the shared queue again, but a free replica drains up to
  ``batch_size`` invocations in one go (greedily: it never waits for a
  batch to fill) and pipelines them: while invocation
  *i* computes, the bus writes back *i−1*'s output and prefetches *i+1*'s
  input (double-buffered BRAM).  A batch of one degenerates to ``fifo``
  exactly, so the policy costs nothing at low load and amortises DMA
  exposure at high load.
* ``round_robin`` — invocations are pinned to replicas in rotation
  (request-independent, cache/BRAM-friendly, but not work-conserving: a
  pinned invocation waits for *its* replica even if another is idle).

The policy name and ``batch_size`` are checked once, by
:class:`~repro.sim.scenario.SimScenario`.

:func:`size_replicas` resolves a ``replicas`` knob on a board and prices one
replica's fabric: ``replicas=0`` packs the largest number of copies of the
scenario's offload-target datapath
(:class:`~repro.fpga.resources.ResourceEstimator` footprint) that fit the
board's FPGA alongside each other.  ``simulate`` and the fleet size their
replicas through it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Generator, Iterable, List, Optional, Sequence, Tuple

from ..api.evaluator import Evaluator
from ..api.scenario import Scenario
from ..platform import ResourceVector
from .engine import PARK, Process, Simulator
from .resources import Accelerator, AxiBus, LevelMonitor
from .workload import PlExecution, Request

__all__ = ["POLICY_NAMES", "Execution", "Dispatcher", "size_replicas"]

#: Supported dispatch-policy names.
POLICY_NAMES = ("fifo", "batched", "round_robin")


class Execution:
    """One queued PL block invocation (a request's offloaded segment).

    ``waiter`` is the process parked on it; :meth:`finish` wakes it once.
    """

    __slots__ = ("request", "plx", "waiter", "finished", "submitted")

    def __init__(self, request: Request, plx: PlExecution, waiter: Process) -> None:
        self.request = request
        self.plx = plx
        self.waiter = waiter
        self.finished = False
        self.submitted = 0.0

    def finish(self) -> None:
        """Wake the waiter: the invocation's output is back in PS memory.

        A no-op once finished, so a PS fallback and an orphaned replica
        service cannot both complete it.
        """

        if not self.finished:
            self.finished = True
            self.waiter.sim.wake(self.waiter)


class Dispatcher:
    """Routes PL invocations to replicas and runs each replica's service loop."""

    def __init__(
        self,
        sim: Simulator,
        bus: AxiBus,
        accelerators: Sequence[Accelerator],
        policy: str,
        batch_size: int,
    ) -> None:
        if not accelerators:
            raise ValueError("dispatcher needs at least one accelerator replica")
        self.sim = sim
        self.bus = bus
        self.accelerators = list(accelerators)
        #: ``round_robin`` pins each invocation to a replica's own queue.
        self.pinned = policy == "round_robin"
        #: Invocations an idle replica drains at once (fifo is a batch of one).
        self.drain = batch_size if policy == "batched" else 1
        self._next = 0
        self.shared: Deque[Execution] = deque()
        self.per_replica: List[Deque[Execution]] = [deque() for _ in self.accelerators]
        #: Invocations waiting in any queue (the ``pending`` level).
        self.queued = 0
        self.pending = LevelMonitor(sim)
        self.batch_sizes: List[int] = []
        #: Each replica's parked worker process, ``None`` while it serves.
        self._idle: List[Optional[Process]] = [None] * len(self.accelerators)
        # -- degraded-mode state (inert in nominal runs) -------------------------------
        #: Liveness of each replica; fail_replica()/revive_replica() flip it.
        self.alive: List[bool] = [True] * len(self.accelerators)
        self.alive_count = len(self.accelerators)
        #: Each replica's service-loop generation: fail_replica() bumps it,
        #: so a killed loop stays stale even when the replica revives
        #: before the loop reaches a resume point.
        self._generation: List[int] = [0] * len(self.accelerators)
        #: Executions currently being served per replica (re-dispatch victims).
        self._inflight: List[List[Execution]] = [[] for _ in self.accelerators]
        #: Invocations drained off a dead replica and queued again elsewhere.
        self.redispatched = 0
        #: Invocations served by the PS software fallback (dead fleet).
        self.fallback_served = 0
        #: Installed by the runner: ``ps_fallback(execution)`` runs the
        #: invocation on a PS core when no replica survives.
        self.ps_fallback = None
        #: Installed by the DMA-corruption fault mode: ``corruptor(request)``
        #: is called once per input DMA burst while the fault is active.
        self.corruptor = None
        for acc in self.accelerators:
            sim.process(self._worker(acc, 0))

    # -- submission --------------------------------------------------------------------

    def submit(self, request: Request, plx: PlExecution) -> Execution:
        """Queue one block invocation for the running process.

        The caller then yields :data:`~repro.sim.engine.PARK`; it is woken
        when the invocation's output feature map is back in PS memory.
        """

        sim = self.sim
        waiter = sim.active_process
        if waiter is None:
            raise RuntimeError("Dispatcher.submit must be called from inside a process")
        execution = Execution(request, plx, waiter)
        execution.submitted = sim.now
        if self.alive_count == 0:
            self._fallback(execution)
            return execution
        self._put(execution)
        self.pending.set(self.queued)
        return execution

    def _put(self, execution: Execution) -> None:
        """Queue one invocation and wake an idle live replica that can serve it.

        A pinned invocation joins the next live replica's queue in rotation
        (:meth:`submit` and :meth:`fail_replica` route to the PS fallback
        before a dead fleet gets here).
        """

        alive = self.alive
        if self.pinned:
            n = len(alive)
            for _ in range(n):
                index = self._next % n
                self._next += 1
                if alive[index]:
                    break
            else:
                raise RuntimeError("round_robin put with no live replica")
            self.per_replica[index].append(execution)
            candidates: Iterable[int] = (index,)
        else:
            self.shared.append(execution)
            candidates = range(len(alive))
        self.queued += 1
        for index in candidates:
            worker = self._idle[index]
            if worker is not None and alive[index]:
                self._idle[index] = None
                self.sim.wake(worker)
                return

    # -- fault hooks -------------------------------------------------------------------

    def fail_replica(self, index: int) -> None:
        """Kill replica ``index``: drain its work and re-dispatch it.

        In-flight invocations (their results are lost with the replica) and
        anything pinned to its queue are resubmitted to the surviving
        replicas as of *now*; when none survive, everything queued anywhere
        flushes to the PS software fallback.  DMA bursts already on the bus
        run to completion — the worker aborts at its next resume point, so
        bus channels never leak.
        """

        if not self.alive[index]:
            return
        acc = self.accelerators[index]
        self.alive[index] = False
        self.alive_count -= 1
        self._generation[index] += 1
        acc.busy.set(0)
        acc.down.set(1)
        self._idle[index] = None
        victims = [e for e in self._inflight[index] if not e.finished]
        self._inflight[index] = []
        self.queued -= len(self.per_replica[index])
        victims.extend(self.per_replica[index])
        self.per_replica[index].clear()
        if self.alive_count == 0:
            self.queued -= len(self.shared)
            victims.extend(self.shared)
            self.shared.clear()
        self.redispatched += len(victims)
        for execution in victims:
            execution.submitted = self.sim.now
            if self.alive_count == 0:
                self._fallback(execution)
            else:
                self._put(execution)
        self.pending.set(self.queued)

    def revive_replica(self, index: int) -> None:
        """Bring replica ``index`` back: a fresh worker of the current
        generation starts immediately."""

        if self.alive[index]:
            return
        acc = self.accelerators[index]
        self.alive[index] = True
        self.alive_count += 1
        acc.down.set(0)
        self.sim.process(self._worker(acc, self._generation[index]))

    def _fallback(self, execution: Execution) -> None:
        if self.ps_fallback is None:
            raise RuntimeError(
                "all accelerator replicas are dead and no PS fallback is installed"
            )
        self.fallback_served += 1
        self.ps_fallback(execution)

    # -- replica service loop ----------------------------------------------------------

    def _worker(self, acc: Accelerator, generation: int) -> Generator:
        """One replica's service loop: serve each batch back-to-back.

        While invocation *i* computes, a concurrent DMA process writes back
        invocation *i−1*'s output and prefetches invocation *i+1*'s input; an
        invocation finishes when its *output* transfer lands.  A batch of
        one reduces to the strictly sequential (DMA in, compute, DMA out)
        transaction of the analytic model.

        Compute is a bare delay.  Only when there is an output to write back
        or an input to prefetch does a step fork the DMA process: the
        compute's end is then a timed :func:`_countdown` call, the DMA
        process's ``done`` the other, and the worker parks until the second
        wakes it.  An idle worker parks and :meth:`_put` wakes it.  With
        free bus units booked in line
        (:meth:`~repro.sim.resources.Resource.try_acquire`), a lone
        invocation costs five queue entries: the worker's wake, its DMA-in,
        compute and DMA-out delays, and the wake of the request parked on
        it.

        The loop serves one ``generation`` of the replica, the one current
        when it was started.  Every completion is routed through
        :meth:`_finish`, which is a no-op once that generation was killed
        (the invocation was re-dispatched; letting the orphaned service
        finish it would wake its request twice), and the loop ends at the
        first resume point after a kill (fail_replica() already zeroed the
        busy monitor and re-dispatched the unfinished invocations), even if
        the replica has revived since under a fresh loop.
        """

        sim = self.sim
        worker = sim.active_process
        generations = self._generation
        index = acc.index
        queue = self.per_replica[index] if self.pinned else self.shared
        drain = self.drain
        while generations[index] == generation:
            batch: List[Execution] = []
            while queue and len(batch) < drain:
                batch.append(queue.popleft())
            if not batch:
                self._idle[index] = worker
                yield PARK
                continue
            self.queued -= len(batch)
            self.pending.set(self.queued)
            self.batch_sizes.append(len(batch))
            for execution in batch:
                execution.request.pl_wait += sim.now - execution.submitted
            self._inflight[index] = list(batch)
            acc.busy.set(1)
            yield from self._transfer_in(batch[0])
            previous: Optional[Execution] = None
            for i, execution in enumerate(batch):
                if generations[index] != generation:
                    return
                upcoming = batch[i + 1] if i + 1 < len(batch) else None
                if previous is None and upcoming is None:
                    yield execution.plx.compute_seconds
                else:
                    arrive = _countdown(sim, worker, 2)
                    sim.schedule(execution.plx.compute_seconds, arrive)
                    Process(
                        sim,
                        self._overlap_dma(index, generation, previous, upcoming),
                        done=arrive,
                    )
                    yield PARK
                previous = execution
            if generations[index] != generation:
                return
            yield from self._transfer_out(previous)
            self._finish(index, generation, previous)
            if generations[index] != generation:
                return
            self._inflight[index] = []
            acc.busy.set(0)
            acc.served += len(batch)

    def _finish(self, index: int, generation: int, execution: Execution) -> None:
        if self._generation[index] == generation:
            execution.finish()

    # Bursts are priced with the execution's *stored* transfer times (from
    # the model that built the service plan), so the simulated DMA always
    # matches the analytic (DMA in + compute + DMA out) decomposition even
    # under a non-default transfer model.  Both return the bus's fragment.

    def _transfer_in(self, execution: Execution) -> Iterable[object]:
        if self.corruptor is not None:
            self.corruptor(execution.request)
        plx = execution.plx
        return self.bus.transfer(plx.words_in, plx.transfer_in_seconds)

    def _transfer_out(self, execution: Execution) -> Iterable[object]:
        plx = execution.plx
        return self.bus.transfer(plx.words_out, plx.transfer_out_seconds)

    def _overlap_dma(
        self,
        index: int,
        generation: int,
        finished: Optional[Execution],
        upcoming: Optional[Execution],
    ) -> Generator:
        if finished is not None:
            yield from self._transfer_out(finished)
            self._finish(index, generation, finished)
        if upcoming is not None:
            yield from self._transfer_in(upcoming)


def _countdown(sim: Simulator, process: Process, parts: int) -> Callable[[], None]:
    """A callable that wakes ``process`` on its ``parts``-th call."""

    def arrive() -> None:
        nonlocal parts
        parts -= 1
        if not parts:
            sim.wake(process)

    return arrive


def size_replicas(
    design: Scenario, replicas: int, evaluator: Evaluator
) -> Tuple[int, ResourceVector]:
    """Resolve ``replicas`` on the design point's board: (replica count,
    one replica's fabric footprint).

    The footprint is the per-instance :class:`~repro.platform.ResourceVector`
    the offload planner prices (all offload targets at the scenario's
    ``n_units`` and Q-format), zero when nothing offloads.  ``replicas=0``
    packs copies (at most 64) until the device overflows; a scenario with
    no offload target gets one (idle) replica.
    """

    decision = evaluator.offload_decision(design)
    if not decision.targets:
        return replicas or 1, ResourceVector()
    per_replica = decision.resources
    if replicas == 0:
        device = design.board_spec.fpga
        while replicas < 64 and per_replica.scale(replicas + 1).fits(device):
            replicas += 1
    return max(1, replicas), per_replica
