"""Every result type is a :class:`repro.analysis.report.Report`.

The base owns the JSON and CSV serialisation, so the source scan keeps
``strict_json`` / ``csv_text`` calls from growing back outside it; the one
exception is :meth:`BatchResult.to_csv`, the column-wise large-grid export.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.analysis import Report
from repro.api import AccuracySweepResult, BatchResult, FmeaStudy, OptReport, Result, SimReport
from repro.fleet import FleetReport

SRC = Path(__file__).resolve().parent.parent / "src"

RESULT_TYPES = (
    Result, BatchResult, AccuracySweepResult, OptReport, FmeaStudy, SimReport, FleetReport,
)


@pytest.mark.parametrize("cls", RESULT_TYPES, ids=lambda cls: cls.__name__)
def test_result_type_is_a_report(cls):
    assert issubclass(cls, Report)


def _callers(node, names, scope=()):
    """The enclosing ``Class.function`` of every call of one of ``names``."""

    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func = child.func
            if getattr(func, "id", getattr(func, "attr", None)) in names:
                yield ".".join(scope)
        inner = (*scope, child.name) if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else scope
        yield from _callers(child, names, inner)


def test_serialisers_are_called_only_by_the_report_base():
    outside = {
        (path.relative_to(SRC).as_posix(), caller)
        for path in sorted((SRC / "repro").rglob("*.py"))
        for caller in _callers(ast.parse(path.read_text()), ("strict_json", "csv_text"))
    }
    outside = {call for call in outside if call[0] != "repro/analysis/report.py"}
    assert outside == {("repro/api/batch.py", "BatchResult.to_csv")}
