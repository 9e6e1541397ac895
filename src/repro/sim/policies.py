"""Serving policies: how PL block invocations are dispatched onto replicas.

The :class:`Dispatcher` owns the replicated PL accelerators and the queues in
front of them; a :class:`DispatchPolicy` decides which queue an invocation
joins and how much work an idle replica grabs at once:

* ``fifo`` — one shared queue, any free replica serves the oldest waiting
  invocation (work-conserving, the baseline discipline).
* ``batched`` — the shared queue again, but a free replica drains up to
  ``batch_size`` invocations in one go and pipelines them: while invocation
  *i* computes, the bus writes back *i−1*'s output and prefetches *i+1*'s
  input (double-buffered BRAM).  A batch of one degenerates to ``fifo``
  exactly, so the policy costs nothing at low load and amortises DMA
  exposure at high load.
* ``round_robin`` — invocations are pinned to replicas in rotation
  (request-independent, cache/BRAM-friendly, but not work-conserving: a
  pinned invocation waits for *its* replica even if another is idle).

Replica counts can be sized from the chip budget with :func:`max_replicas`:
the largest number of copies of the scenario's offload-target datapath
(:class:`~repro.fpga.resources.ResourceEstimator` footprint) that fit the
board's FPGA alongside each other.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generator, Iterable, List, Optional, Sequence

from .._checks import check_count
from ..api.evaluator import Evaluator
from ..api.scenario import Scenario
from .engine import Event, Process, Simulator, Timeout
from .resources import Accelerator, AxiBus, LevelMonitor
from .workload import PlExecution, Request

__all__ = [
    "POLICY_NAMES",
    "Execution",
    "DispatchPolicy",
    "FifoPolicy",
    "BatchedPolicy",
    "RoundRobinPolicy",
    "Dispatcher",
    "make_policy",
    "max_replicas",
]

#: Supported dispatch-policy names.
POLICY_NAMES = ("fifo", "batched", "round_robin")


class Execution:
    """One queued PL block invocation (a request's offloaded segment)."""

    __slots__ = ("request", "plx", "done", "submitted")

    def __init__(self, request: Request, plx: PlExecution, done: Event) -> None:
        self.request = request
        self.plx = plx
        self.done = done
        self.submitted = 0.0


class DispatchPolicy:
    """Queue-placement and batch-formation strategy (stateless base)."""

    name = "base"
    batch_size = 1

    def put(self, dispatcher: "Dispatcher", execution: Execution) -> None:
        dispatcher.shared.append(execution)

    def take(self, dispatcher: "Dispatcher", accelerator: Accelerator) -> List[Execution]:
        queue = dispatcher.shared
        batch: List[Execution] = []
        while queue and len(batch) < self.batch_size:
            batch.append(queue.popleft())
        return batch

    def wake_candidates(
        self, dispatcher: "Dispatcher", execution: Execution
    ) -> Sequence[Accelerator]:
        return dispatcher.accelerators


class FifoPolicy(DispatchPolicy):
    """Shared queue, one invocation at a time, any free replica."""

    name = "fifo"


class BatchedPolicy(DispatchPolicy):
    """Shared queue; a free replica drains up to ``batch_size`` invocations.

    Greedy batching: a replica never waits for a batch to fill — it takes
    whatever is queued (up to the cap), so a lone request is served exactly
    like ``fifo`` and batches only form when load makes them form.
    """

    name = "batched"

    def __init__(self, batch_size: int = 4) -> None:
        self.batch_size = check_count("batch_size", batch_size, 1)


class RoundRobinPolicy(DispatchPolicy):
    """Invocations pinned to replicas in rotation (per-replica queues)."""

    name = "round_robin"

    def __init__(self) -> None:
        self._next = 0

    def put(self, dispatcher: "Dispatcher", execution: Execution) -> None:
        n = len(dispatcher.accelerators)
        for _ in range(n):
            index = self._next % n
            self._next += 1
            if dispatcher.alive[index]:
                dispatcher.per_replica[index].append(execution)
                return
        # Callers guarantee alive_count > 0 (submit() and fail_replica()
        # route to the PS fallback before calling put on a dead fleet).
        raise RuntimeError("round_robin put with no live replica")

    def take(self, dispatcher: "Dispatcher", accelerator: Accelerator) -> List[Execution]:
        queue = dispatcher.per_replica[accelerator.index]
        return [queue.popleft()] if queue else []

    def wake_candidates(
        self, dispatcher: "Dispatcher", execution: Execution
    ) -> Sequence[Accelerator]:
        # put() already advanced the counter, so the execution sits in the
        # previous slot's queue.
        index = (self._next - 1) % len(dispatcher.accelerators)
        return (dispatcher.accelerators[index],)


def make_policy(name: str, batch_size: int = 4) -> DispatchPolicy:
    """Construct a policy by name (the CLI/SimScenario entry point)."""

    if name == "fifo":
        return FifoPolicy()
    if name == "batched":
        return BatchedPolicy(batch_size=batch_size)
    if name == "round_robin":
        return RoundRobinPolicy()
    raise ValueError(f"unknown policy '{name}'; expected one of {POLICY_NAMES}")


class Dispatcher:
    """Routes PL invocations to replicas and runs each replica's service loop."""

    def __init__(
        self,
        sim: Simulator,
        bus: AxiBus,
        accelerators: Sequence[Accelerator],
        policy: DispatchPolicy,
    ) -> None:
        if not accelerators:
            raise ValueError("dispatcher needs at least one accelerator replica")
        self.sim = sim
        self.bus = bus
        self.accelerators = list(accelerators)
        self.policy = policy
        self.shared: Deque[Execution] = deque()
        self.per_replica: List[Deque[Execution]] = [deque() for _ in self.accelerators]
        self.pending = LevelMonitor(sim)
        self.batch_sizes: List[int] = []
        self._idle: List[Optional[Event]] = [None] * len(self.accelerators)
        # -- degraded-mode state (inert in nominal runs) -------------------------------
        #: Liveness of each replica; fail_replica()/revive_replica() flip it.
        self.alive: List[bool] = [True] * len(self.accelerators)
        self.alive_count = len(self.accelerators)
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
            sim.process(self._worker(acc))

    # -- submission --------------------------------------------------------------------

    @property
    def queued(self) -> int:
        return len(self.shared) + sum(map(len, self.per_replica))

    def submit(self, request: Request, plx: PlExecution) -> Event:
        """Queue one block invocation; the returned event fires when its
        output feature map is back in PS memory."""

        execution = Execution(request, plx, Event(self.sim))
        execution.submitted = self.sim.now
        if self.alive_count == 0:
            self._fallback(execution)
            return execution.done
        self.policy.put(self, execution)
        self.pending.set(self.queued)
        self._wake(execution)
        return execution.done

    def _wake(self, execution: Execution) -> None:
        for acc in self.policy.wake_candidates(self, execution):
            if not self.alive[acc.index]:
                continue
            wake = self._idle[acc.index]
            if wake is not None:
                self._idle[acc.index] = None
                wake.succeed(None)
                break

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
        acc.busy.set(0)
        acc.down.set(1)
        self._idle[index] = None
        victims = [e for e in self._inflight[index] if not e.done.triggered]
        self._inflight[index] = []
        victims.extend(self.per_replica[index])
        self.per_replica[index].clear()
        if self.alive_count == 0:
            victims.extend(self.shared)
            self.shared.clear()
        self.redispatched += len(victims)
        for execution in victims:
            execution.submitted = self.sim.now
            if self.alive_count == 0:
                self._fallback(execution)
            else:
                self.policy.put(self, execution)
                self._wake(execution)
        self.pending.set(self.queued)

    def revive_replica(self, index: int) -> None:
        """Bring replica ``index`` back (a fresh worker starts immediately)."""

        if self.alive[index]:
            return
        acc = self.accelerators[index]
        self.alive[index] = True
        self.alive_count += 1
        acc.down.set(0)
        self.sim.process(self._worker(acc))

    def _fallback(self, execution: Execution) -> None:
        if self.ps_fallback is None:
            raise RuntimeError(
                "all accelerator replicas are dead and no PS fallback is installed"
            )
        self.fallback_served += 1
        self.ps_fallback(execution)

    # -- replica service loop ----------------------------------------------------------

    def _worker(self, acc: Accelerator) -> Generator:
        """One replica's service loop: serve each batch back-to-back.

        While invocation *i* computes, a concurrent DMA process writes back
        invocation *i−1*'s output and prefetches invocation *i+1*'s input; an
        invocation's completion event fires when its *output* transfer lands.
        A batch of one reduces to the strictly sequential
        (DMA in, compute, DMA out) transaction of the analytic model.

        Every completion is routed through :meth:`_finish`, which is a no-op
        once the replica died (the invocation was re-dispatched; letting the
        orphaned service finish it would double-fire its ``done`` event), and
        the loop ends at the first resume point after a kill (fail_replica()
        already zeroed the busy monitor and re-dispatched the unfinished
        invocations).
        """

        sim = self.sim
        alive = self.alive
        index = acc.index
        while alive[index]:
            batch = self.policy.take(self, acc)
            if not batch:
                wake = Event(sim)
                self._idle[index] = wake
                yield wake
                continue
            self.pending.set(self.queued)
            self.batch_sizes.append(len(batch))
            for execution in batch:
                execution.request.pl_wait += sim.now - execution.submitted
            self._inflight[index] = list(batch)
            acc.busy.set(1)
            yield from self._transfer_in(batch[0])
            previous: Optional[Execution] = None
            for i, execution in enumerate(batch):
                if not alive[index]:
                    return
                upcoming = batch[i + 1] if i + 1 < len(batch) else None
                compute = Process(sim, self._compute(execution))
                overlap = Process(sim, self._overlap_dma(acc, previous, upcoming))
                yield sim.all_of((compute, overlap))
                previous = execution
            if not alive[index]:
                return
            yield from self._transfer_out(previous)
            self._finish(acc, previous)
            if not alive[index]:
                return
            self._inflight[index] = []
            acc.busy.set(0)
            acc.served += len(batch)

    def _finish(self, acc: Accelerator, execution: Execution) -> None:
        if self.alive[acc.index] and not execution.done.triggered:
            execution.done.succeed(None)

    def _compute(self, execution: Execution) -> Generator:
        yield Timeout(self.sim, execution.plx.compute_seconds)

    # Bursts are priced with the execution's *stored* transfer times (from
    # the model that built the service plan), so the simulated DMA always
    # matches the analytic (DMA in + compute + DMA out) decomposition even
    # under a non-default transfer model.  Both return the bus's fragment.

    def _transfer_in(self, execution: Execution) -> Iterable[Event]:
        if self.corruptor is not None:
            self.corruptor(execution.request)
        plx = execution.plx
        return self.bus.transfer(plx.words_in, plx.transfer_in_seconds)

    def _transfer_out(self, execution: Execution) -> Iterable[Event]:
        plx = execution.plx
        return self.bus.transfer(plx.words_out, plx.transfer_out_seconds)

    def _overlap_dma(
        self,
        acc: Accelerator,
        finished: Optional[Execution],
        upcoming: Optional[Execution],
    ) -> Generator:
        if finished is not None:
            yield from self._transfer_out(finished)
            self._finish(acc, finished)
        if upcoming is not None:
            yield from self._transfer_in(upcoming)


def max_replicas(
    scenario: Scenario,
    evaluator: Optional[Evaluator] = None,
    limit: int = 64,
) -> int:
    """How many copies of the scenario's PL datapath fit the board's FPGA.

    Uses the same per-instance :class:`~repro.platform.ResourceVector`
    the offload planner prices (all offload targets at the scenario's
    ``n_units`` and Q-format) and packs copies until the device overflows.
    Scenarios with no offload target get one (idle) replica.
    """

    ev = evaluator if evaluator is not None else Evaluator()
    decision = ev.offload_decision(scenario)
    if not decision.targets:
        return 1
    device = scenario.board_spec.fpga
    per_replica = decision.resources
    fit = 0
    while fit < limit and per_replica.scale(fit + 1).fits(device):
        fit += 1
    return max(1, fit)
