"""Differential test of the indexed balancer against the linear-scan oracle.

``reference_balancer.py`` routes by scanning every board; the
:class:`~repro.fleet.Balancer` keeps a lazily checked heap index for
least-loaded routing and cached cumulative weights for weighted routing
instead.  Random programs of routes, direct slot commits, power-downs and
power-ups run against one set of boards, and at every route both must pick
the same board (or ``None``).  A small grid of service times, arrival gaps
(0 included) and boot delays makes equal keys common, so the
inventory-order tie-break is exercised; multi-replica boards, mixed
service times and fleets with every board unpowered are in the draw.
Weighted programs draw service times whose weights do not sum exactly and
uniforms that land on cumulative-weight boundaries.  Least-loaded programs
also route through the :class:`~repro.fleet.balancer.ScanBalancer`
(event fidelity's balancer, a scan of ``predicted_start``), which must pick
the same board too.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import Balancer, BoardServer
from repro.fleet.balancer import ScanBalancer

import reference_balancer

REPLICAS = st.integers(min_value=1, max_value=3)
PL_W = st.sampled_from((1.0, 2.0))  # equal energy costs tie
BOARD = st.tuples(REPLICAS, st.sampled_from((0.25, 0.5, 1.0)), PL_W, st.booleans())
#: Weighted routing: 1/0.3 and 1/0.7 are inexact, so running sums round.
WEIGHTED_BOARD = st.tuples(REPLICAS, st.sampled_from((0.25, 0.3, 0.7, 1.0)), PL_W, st.booleans())
#: Route uniforms: ``None`` reads as 0, and 0.25 / 0.5 hit boundaries.
UNIFORM = st.one_of(
    st.none(),
    st.sampled_from((0.0, 0.25, 0.5)),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
INDEX = st.integers(min_value=0, max_value=5)
FORWARD = st.sampled_from((0.0, 0.0, 0.25, 0.5, 1.0, 3.0))
BACKWARD = st.sampled_from((0.0, 0.25, 1.0, -0.25, -1.0, -3.0))


def op(gap):
    route = st.tuples(st.just("route"), st.sampled_from(("latency", "latency", "batch")), UNIFORM)
    return st.one_of(
        st.tuples(st.just("advance"), gap),
        route,
        route,
        route,
        st.tuples(st.just("assign"), INDEX),
        st.tuples(st.just("down"), INDEX),
        st.tuples(st.just("up"), INDEX, st.sampled_from((0.0, 0.5, 5.0))),
    )


def make_board(index: int, replicas: int, svc_s: float, pl_w: float) -> BoardServer:
    return BoardServer(
        index=index, group=0, name="PYNQ-Z2", replicas=replicas, svc_s=svc_s, ps_s=0.1,
        pl_w=pl_w, ps_active_w=1.0, ps_idle_w=0.2, ps_cores=1,
    )


def run_program(specs, program, routing="least_loaded") -> None:
    """Run ``program`` against both balancers on one set of boards."""

    boards = [make_board(i, *spec[:3]) for i, spec in enumerate(specs)]
    for board, spec in zip(boards, specs):
        if not spec[3]:
            board.power_down(0.0)
    indexed = Balancer(boards, routing)
    oracle = reference_balancer.ReferenceBalancer(boards, routing)
    # Weighted routing caches the powered set, which only ``indexed`` sees
    # change here; event fidelity never changes it.
    scan = ScanBalancer(boards, routing) if routing == "least_loaded" else None
    t = 0.0
    for step in program:
        kind = step[0]
        if kind == "advance":
            t += step[1]
        elif kind == "route":
            picked = indexed.route(t, step[1], step[2])
            assert picked is oracle.route(t, step[1], step[2]), (t, step)
            if scan is not None:
                assert picked is scan.route(t, step[1], step[2]), (t, step)
            if picked is not None:
                picked.assign(t)
        else:
            board = boards[step[1] % len(boards)]
            if kind == "assign" and board.powered:
                board.assign(t)
            elif kind == "down" and board.powered:
                indexed.power_down(board, t)
            elif kind == "up" and not board.powered:
                indexed.power_up(board, t, step[2])


@settings(max_examples=300, deadline=None)
@given(st.lists(BOARD, min_size=1, max_size=6), st.lists(op(FORWARD), max_size=60))
def test_indexed_balancer_matches_the_scan(specs, program):
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
