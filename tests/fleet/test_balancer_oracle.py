"""Differential test of the balancer against the linear-scan oracle.

``reference_balancer.py`` routes by computing every board's predicted
start from its ground truth; the :class:`~repro.fleet.Balancer` scans one
``ready_at`` key per board for least-loaded routing and keeps cached
cumulative weights for weighted routing instead.  Random programs run
against one set of boards, and at every route both must pick the same
board (or ``None``), on both fidelities' boards:

* fast programs route, commit slots directly, power boards down and up
  (through the balancer), and let time run forwards or backwards; after
  every step a board's ``ready_at`` is ``inf`` exactly when it is
  unpowered, the invariant the scan relies on instead of reading
  ``powered``;
* event programs start :class:`~repro.fleet.runner.EventBoard`\\ s at random
  ``outstanding`` counts, admit and complete requests, and refresh every
  key from :meth:`~repro.fleet.runner.EventBoard.predicted_start` at each
  arrival as the event cell does; the oracle computes the event rule on
  its own.

A small grid of service times, arrival gaps (0 included) and boot delays
makes equal keys common, so the inventory-order tie-break is exercised;
multi-replica boards, mixed service times and fleets with every board
unpowered are in the draw.  Weighted programs draw service times whose
weights do not sum exactly and uniforms that land on cumulative-weight
boundaries.
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fleet import Balancer, BoardServer
from repro.fleet.runner import EventBoard

import reference_balancer

REPLICAS = st.integers(min_value=1, max_value=3)
PL_W = st.sampled_from((1.0, 2.0))  # equal energy costs tie
SVC_S = st.sampled_from((0.25, 0.5, 1.0))
#: Weighted routing: 1/0.3 and 1/0.7 are inexact, so running sums round.
WEIGHTED_SVC_S = st.sampled_from((0.25, 0.3, 0.7, 1.0))
BOARD = st.tuples(REPLICAS, SVC_S, PL_W, st.booleans())
WEIGHTED_BOARD = st.tuples(REPLICAS, WEIGHTED_SVC_S, PL_W, st.booleans())
#: Event boards: (replicas, service time, PL W, requests outstanding at start).
OUTSTANDING = st.integers(min_value=0, max_value=6)
EVENT_BOARD = st.tuples(REPLICAS, SVC_S, PL_W, OUTSTANDING)
WEIGHTED_EVENT_BOARD = st.tuples(REPLICAS, WEIGHTED_SVC_S, PL_W, OUTSTANDING)
#: Route uniforms: ``None`` reads as 0, and 0.25 / 0.5 hit boundaries.
UNIFORM = st.one_of(
    st.none(),
    st.sampled_from((0.0, 0.25, 0.5)),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
INDEX = st.integers(min_value=0, max_value=5)
FORWARD = st.sampled_from((0.0, 0.0, 0.25, 0.5, 1.0, 3.0))
BACKWARD = st.sampled_from((0.0, 0.25, 1.0, -0.25, -1.0, -3.0))
ROUTE = st.tuples(st.just("route"), st.sampled_from(("latency", "latency", "batch")), UNIFORM)


def op(gap):
    return st.one_of(
        st.tuples(st.just("advance"), gap),
        ROUTE,
        ROUTE,
        ROUTE,
        st.tuples(st.just("assign"), INDEX),
        st.tuples(st.just("down"), INDEX),
        st.tuples(st.just("up"), INDEX, st.sampled_from((0.0, 0.5, 5.0))),
    )


#: Event steps: time only runs forwards, and a request completes on a board.
EVENT_OP = st.one_of(
    st.tuples(st.just("advance"), FORWARD),
    ROUTE,
    ROUTE,
    ROUTE,
    st.tuples(st.just("complete"), INDEX),
    st.tuples(st.just("complete"), INDEX),
)


def make_board(index: int, replicas: int, svc_s: float, pl_w: float,
               kind: type = BoardServer) -> BoardServer:
    return kind(
        index=index, group=0, name="PYNQ-Z2", replicas=replicas, svc_s=svc_s, ps_s=0.1,
        pl_w=pl_w, ps_active_w=1.0, ps_idle_w=0.2, ps_cores=1,
    )


def assert_unpowered_keys_are_inf(boards) -> None:
    for board in boards:
        assert math.isinf(board.ready_at) is not board.powered, (board.index, board.ready_at)


def run_program(specs, program, routing="least_loaded") -> None:
    """Run a fast ``program`` against both balancers on one set of boards."""

    boards = [make_board(i, *spec[:3]) for i, spec in enumerate(specs)]
    balancer = Balancer(boards, routing)
    for board, spec in zip(boards, specs):
        if not spec[3]:
            balancer.power_down(board, 0.0)
    oracle = reference_balancer.ReferenceBalancer(boards, routing)
    t = 0.0
    for step in program:
        kind = step[0]
        if kind == "advance":
            t += step[1]
        elif kind == "route":
            picked = balancer.route(t, step[1], step[2])
            assert picked is oracle.route(t, step[1], step[2]), (t, step)
            if picked is not None:
                picked.assign(t)
        else:
            board = boards[step[1] % len(boards)]
            if kind == "assign" and board.powered:
                board.assign(t)
            elif kind == "down" and board.powered:
                balancer.power_down(board, t)
            elif kind == "up" and not board.powered:
                balancer.power_up(board, t, step[2])
        assert_unpowered_keys_are_inf(boards)


def run_event_program(specs, program, routing="least_loaded") -> None:
    """Run an event ``program``: live ``outstanding`` counts, keys refreshed
    at each arrival as the event cell does."""

    boards = [make_board(i, *spec[:3], kind=EventBoard) for i, spec in enumerate(specs)]
    for board, spec in zip(boards, specs):
        board.outstanding = spec[3]
    balancer = Balancer(boards, routing)
    oracle = reference_balancer.ReferenceBalancer(
        boards, routing, reference_balancer.event_predicted_start
    )
    t = 0.0
    for step in program:
        kind = step[0]
        if kind == "advance":
            t += step[1]
        elif kind == "route":
            for board in boards:
                board.ready_at = board.predicted_start(t)
            picked = balancer.route(t, step[1], step[2])
            assert picked is oracle.route(t, step[1], step[2]), (t, step)
            assert picked is not None  # every event board is powered
            picked.outstanding += 1
        else:
            board = boards[step[1] % len(boards)]
            if board.outstanding:
                board.outstanding -= 1


@settings(max_examples=300, deadline=None)
@given(st.lists(BOARD, min_size=1, max_size=6), st.lists(op(FORWARD), max_size=60))
# A board ready exactly at ``t`` ahead of one ready earlier: the first wins.
@example(
    [(1, 1.0, 1.0, True), (1, 0.25, 1.0, True)],
    [("route", "latency", None), ("route", "latency", None), ("advance", 1.0),
     ("route", "latency", None)],
)
def test_balancer_matches_the_scan(specs, program):
    run_program(specs, program)


@settings(max_examples=100, deadline=None)
@given(st.lists(BOARD, min_size=1, max_size=6), st.lists(op(BACKWARD), max_size=60))
def test_routing_stays_right_when_time_goes_backwards(specs, program):
    # Direct API users may route at an earlier t than the last one.
    run_program(specs, program)


@settings(max_examples=300, deadline=None)
@given(st.lists(WEIGHTED_BOARD, min_size=1, max_size=6), st.lists(op(FORWARD), max_size=60))
def test_weighted_table_matches_the_scan(specs, program):
    # Power-downs and power-ups change the powered set mid-program.
    run_program(specs, program, "weighted")


@settings(max_examples=300, deadline=None)
@given(st.lists(EVENT_BOARD, min_size=1, max_size=6), st.lists(EVENT_OP, max_size=60))
def test_event_boards_route_as_the_scan(specs, program):
    run_event_program(specs, program)


@settings(max_examples=100, deadline=None)
@given(st.lists(WEIGHTED_EVENT_BOARD, min_size=1, max_size=6), st.lists(EVENT_OP, max_size=60))
def test_weighted_event_boards_route_as_the_scan(specs, program):
    run_event_program(specs, program, "weighted")
