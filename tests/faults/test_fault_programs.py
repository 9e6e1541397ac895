"""Random fault programs keep the serving system's books.

Hypothesis draws a policy, 1-3 replicas, a PS core count and a program of
replica deaths, PS-core losses and AXI degradations at random times, each
permanent or repaired after as little as 1 µs, runs it through
:func:`repro.sim.simulate` with spies on the dispatcher, and checks
conservation on every run:

* every offered request completes exactly once;
* every queued invocation's :meth:`Execution.finish` wakes its request
  exactly once;
* no replica ever has two live service loops (two loops of its current
  generation), and no replica's busy level exceeds 1;
* every busy and queue monitor ends at 0;
* the reported replica downtime equals the kill intervals the fault modes
  report, clipped to the horizon;
* once the last transient fault has cleared, PS capacity and bus slowdown
  are those the permanent faults alone leave (exactly the nominal values
  when there are none), however the faults overlapped.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Evaluator
from repro.faults import AxiDegradation, PsCoreLoss, ReplicaDeath
from repro.sim import SimScenario, Simulator, runner, simulate
from repro.sim.policies import Dispatcher, Execution
from repro.sim.scenario import POLICY_NAMES

EVALUATOR = Evaluator()

#: Injection instants hypothesis may also pick exactly: the start, whole
#: and half seconds (deterministic arrivals land on them) and the mid-batch
#: kill instant of the report-identity fixture.
EXACT_TIMES = (0.0, 0.5, 1.0, 1.94, 2.0)


class Books:
    """What the spies saw during one run."""

    def __init__(self) -> None:
        self.dispatcher: Optional[Dispatcher] = None
        self.ps: Optional[runner.Resource] = None
        self.completions: Counter = Counter()
        self.executions: List[Execution] = []
        self.finish_wakes: Counter = Counter()
        self.wakes = 0
        #: ``[replica, killed at, revived at or None]`` per effective kill.
        self.kills: List[list] = []
        self.loop_faults: List[str] = []


def _spy(monkeypatch: pytest.MonkeyPatch, books: Books) -> None:
    class SpyDispatcher(Dispatcher):
        def __init__(self, *args, **kwargs) -> None:
            # Set before the base class starts the first service loops.
            self.running: Dict[int, List[int]] = {}
            super().__init__(*args, **kwargs)
            books.dispatcher = self

        def submit(self, request, plx):
            execution = super().submit(request, plx)
            books.executions.append(execution)
            return execution

        def _worker(self, acc, generation):
            # A loop is live while its generation is current: it may start
            # only then, beside no other loop of that generation, and a
            # killed (stale) loop may finish its bus bursts but never start
            # a batch.
            index = acc.index
            running = self.running.setdefault(index, [])
            if generation != self._generation[index] or generation in running:
                books.loop_faults.append(
                    f"replica {index}: loop of generation {generation} started at "
                    f"{self.sim.now} (current {self._generation[index]}, running {running})"
                )
            running.append(generation)
            loop = super()._worker(acc, generation)
            try:
                while True:
                    batches = len(self.batch_sizes)
                    try:
                        step = next(loop)
                    except StopIteration:
                        return
                    if len(self.batch_sizes) > batches and generation != self._generation[index]:
                        books.loop_faults.append(
                            f"replica {index}: stale loop of generation {generation} "
                            f"started a batch at {self.sim.now}"
                        )
                    yield step
            finally:
                running.remove(generation)

    class SpyResource(runner.Resource):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            books.ps = self

    original_process = runner._request_process

    def request_process(sim, request, *rest):
        yield from original_process(sim, request, *rest)
        books.completions[request.index] += 1

    original_wake = Simulator.wake

    def wake(sim, process):
        books.wakes += 1
        original_wake(sim, process)

    original_finish = Execution.finish

    def finish(execution):
        before = books.wakes
        original_finish(execution)
        books.finish_wakes[id(execution)] += books.wakes - before

    original_inject = ReplicaDeath.inject
    original_clear = ReplicaDeath.clear

    def inject(mode, system):
        token = original_inject(mode, system)
        if token is not None:
            books.kills.append([token, system.sim.now, None])
        return token

    def clear(mode, system, token):
        if token is not None:
            open_kill = [k for k in books.kills if k[0] == token and k[2] is None]
            assert len(open_kill) == 1, f"clearing replica {token}: open kills {open_kill}"
            open_kill[0][2] = system.sim.now
        original_clear(mode, system, token)

    monkeypatch.setattr(runner, "Dispatcher", SpyDispatcher)
    monkeypatch.setattr(runner, "Resource", SpyResource)
    monkeypatch.setattr(runner, "_request_process", request_process)
    monkeypatch.setattr(Simulator, "wake", wake)
    monkeypatch.setattr(Execution, "finish", finish)
    monkeypatch.setattr(ReplicaDeath, "inject", inject)
    monkeypatch.setattr(ReplicaDeath, "clear", clear)


@st.composite
def fault_entries(draw):
    t_inject = draw(st.one_of(st.floats(0.0, 4.0), st.sampled_from(EXACT_TIMES)))
    duration = draw(st.one_of(st.none(), st.floats(1e-6, 2.0), st.just(1e-6)))
    kind = draw(st.sampled_from(("replica_death", "ps_core_loss", "axi_degraded")))
    if kind == "replica_death":
        mode = ReplicaDeath(
            duration_s=duration, replica=draw(st.one_of(st.none(), st.integers(0, 2)))
        )
    elif kind == "ps_core_loss":
        mode = PsCoreLoss(duration_s=duration, cores_lost=draw(st.integers(1, 3)))
    else:
        mode = AxiDegradation(duration_s=duration, burst_bits=draw(st.sampled_from((1, 8, 16))))
    return mode, t_inject


@st.composite
def fault_programs(draw):
    scenario = SimScenario(
        model="rODENet-3",
        depth=20,
        board="PYNQ-Z2",
        policy=draw(st.sampled_from(POLICY_NAMES)),
        batch_size=draw(st.integers(1, 4)),
        replicas=draw(st.integers(1, 3)),
        ps_cores=draw(st.integers(1, 3)),
        arrival=draw(st.sampled_from(("poisson", "deterministic"))),
        arrival_rate_hz=draw(st.sampled_from((2.0, 8.0, 12.0, 30.0))),
        n_requests=draw(st.integers(1, 30)),
        seed=draw(st.integers(0, 1000)),
    )
    return scenario, draw(st.lists(fault_entries(), max_size=6))


@settings(max_examples=150, deadline=None)
@given(fault_programs())
def test_random_fault_programs_keep_the_books(program):
    scenario, faults = program
    books = Books()
    with pytest.MonkeyPatch.context() as monkeypatch:
        _spy(monkeypatch, books)
        report = simulate(scenario, evaluator=EVALUATOR, faults=faults)

    offered = report.requests["offered"]
    assert report.requests["completed"] == offered
    assert books.completions == Counter(range(offered))

    assert books.executions, "every request offloads at least one block"
    assert [books.finish_wakes[id(e)] for e in books.executions] == [1] * len(books.executions)

    assert books.loop_faults == []
    dispatcher = books.dispatcher
    for acc in dispatcher.accelerators:
        assert acc.busy.peak <= 1, acc.name
        assert acc.busy.level == 0, acc.name
    for monitor in (
        dispatcher.pending,
        dispatcher.bus.busy,
        dispatcher.bus.queue_depth,
        books.ps.busy,
        books.ps.queue_depth,
    ):
        assert monitor.level == 0
    assert dispatcher.queued == 0

    horizon = report.horizon_s
    expected = sum(
        min(horizon, horizon if revived is None else revived) - min(horizon, killed)
        for _, killed, revived in books.kills
    )
    downtime = report.faults["replica_downtime_s"] if faults else 0.0
    assert downtime == pytest.approx(expected, rel=1e-9, abs=1e-12)

    # run() drains the queue, so every transient fault has cleared by now.
    permanent = [mode for mode, _ in faults if mode.duration_s is None]
    lost = sum(mode.cores_lost for mode in permanent if isinstance(mode, PsCoreLoss))
    assert books.ps.capacity == max(1, scenario.ps_cores - lost)
    factors = [mode.slowdown_factor() for mode in permanent if isinstance(mode, AxiDegradation)]
    if factors:
        assert dispatcher.bus.slowdown == pytest.approx(math.prod(factors), rel=1e-12)
    else:
        assert dispatcher.bus.slowdown == 1.0
