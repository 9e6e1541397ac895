"""Each input rule has one owner.

Integer counts go through :func:`repro._checks.check_count` (Python and NumPy
integers pass and are stored as plain ints, anything else is a named
``ValueError``), and the Table-5 row "ODENet-3" maps to its Table-4 variant in
one function (no other code maps the names, in either direction).  An
arrival trace is checked once, by ``repro.sim.scenario.check_traffic``, so
``SimScenario`` and ``FleetScenario`` both refuse a bad one when built.  Each
calibration constant and board value has one source: no ``*Config`` twin of
the models' constants and no ``for_board`` copy of a board rule.  The source
scan keeps copies of these rules from growing back.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from repro.api.accuracy import accuracy_sweep
from repro.faults.sample import injection_times
from repro.fleet import BoardGroup, FleetScenario, simulate_fleet
from repro.opt import SearchSpace
from repro.sim import SimScenario, Simulator
from repro.sim.resources import Resource

SRC = Path(__file__).resolve().parent.parent / "src"

ONE_BOARD = FleetScenario(boards=(BoardGroup("PYNQ-Z2", 1),), n_requests=5)


def _accuracy_sweep(workers):
    """One image is one chunk: ``workers`` is checked but no pool starts."""

    return accuracy_sweep("layer1", ["16:8"], images=1, chunk_size=1, workers=workers).workers


def _injection_times(n_samples):
    injection_times(10.0, n_samples)


#: Count field -> a call taking that count and returning the value it stores
#: (``None`` where the call keeps nothing to echo).
COUNT_ENTRY_POINTS = {
    "axis 'n_units' value": lambda v: SearchSpace(axes={"n_units": [v]}).axes["n_units"][0],
    "shards": lambda v: simulate_fleet(ONE_BOARD, shards=v).shards,
    "workers": _accuracy_sweep,
    "n_samples": _injection_times,
    "capacity": lambda v: Resource(Simulator(), capacity=v).capacity,
}


@pytest.mark.parametrize("field", sorted(COUNT_ENTRY_POINTS))
@pytest.mark.parametrize("value", [np.int64(2), 2.5], ids=["numpy-int", "float"])
def test_count_entry_points(field, value):
    call = COUNT_ENTRY_POINTS[field]
    if isinstance(value, float):
        with pytest.raises(ValueError, match=f"{re.escape(field)} must be a positive integer"):
            call(value)
    else:
        echoed = call(value)
        assert echoed is None or (type(echoed) is int and echoed == value)


def _sources():
    return {
        path.relative_to(SRC).as_posix(): path.read_text()
        for path in sorted((SRC / "repro").rglob("*.py"))
    }


def test_count_messages_live_in_checks_only():
    rule = re.compile(r"must be a (positive|non-negative) integer")
    owners = [name for name, text in _sources().items() if rule.search(text)]
    assert owners == ["repro/_checks.py"]


TRACE_RULE = "trace timestamps must be finite, sorted and non-negative"


@pytest.mark.parametrize("build", [SimScenario, FleetScenario], ids=["sim", "fleet"])
@pytest.mark.parametrize(
    "trace",
    [(3.0, 1.0, 2.0), (-3.0, 1.0, 2.0), (0.0, float("nan")), (0.0, float("inf"))],
    ids=["unsorted", "negative", "nan", "inf"],
)
def test_bad_trace_rejected_at_construction(build, trace):
    with pytest.raises(ValueError, match=re.escape(TRACE_RULE)):
        build(arrival="trace", trace=trace)


def test_trace_rule_lives_in_check_traffic():
    owners = [name for name, text in _sources().items() if TRACE_RULE in text]
    assert owners == ["repro/sim/scenario.py"]


def _compares_odenet3(node: ast.AST) -> bool:
    return isinstance(node, ast.Compare) and any(
        isinstance(operand, ast.Constant) and operand.value == "ODENet-3"
        for operand in (node.left, *node.comparators)
    )


def _maps_table5_name(node: ast.AST) -> bool:
    """A conditional or dict literal pairing "ODENet" with "ODENet-3": the
    row-to-variant map or its reverse."""

    if not isinstance(node, (ast.IfExp, ast.If, ast.Dict)):
        return False
    names = {n.value for n in ast.walk(node) if isinstance(n, ast.Constant)}
    return {"ODENet", "ODENet-3"} <= names


def _functions_with(trees, predicate):
    return [
        (name, fn.name)
        for name, tree in trees.items()
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and any(map(predicate, ast.walk(fn)))
    ]


def test_table5_row_maps_to_its_variant_in_one_function():
    trees = {name: ast.parse(text) for name, text in _sources().items()}
    compares = [node for tree in trees.values() for node in ast.walk(tree) if _compares_odenet3(node)]
    maps = [node for tree in trees.values() for node in ast.walk(tree) if _maps_table5_name(node)]
    assert len(compares) == 1
    assert len(maps) == 1
    owner = [("repro/core/variants.py", "table4_variant")]
    assert _functions_with(trees, _compares_odenet3) == owner
    assert _functions_with(trees, _maps_table5_name) == owner


def test_model_constants_have_no_config_twins():
    trees = {name: ast.parse(text) for name, text in _sources().items()}
    configs = [
        (name, node.name)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name.endswith("Config")
    ]
    for_board = [
        (name, node.name)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "for_board"
    ]
    assert configs == [("repro/core/architectures.py", "OdeNetConfig")]
    assert for_board == []
