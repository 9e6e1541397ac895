"""The reach audit's field pass: what counts as setting a dataclass field.

``benchmarks/audit_reach.py`` watches each dataclass-generated ``__init__``
in its half-minute driven run; these checks drive the same ``Recorder`` on
dataclasses defined here (the audit's package root pointed at this
directory), so a change to the rule fails in tier-1.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
try:
    import audit_reach
finally:
    sys.path.remove(str(ROOT / "benchmarks"))

HERE = Path(__file__).name


@dataclass(frozen=True)
class _Knobs:
    name: str
    rate: float = 1.0
    tags: List[str] = field(default_factory=list)
    served: int = field(default=0, init=False)


@dataclass(frozen=True)
class _Derived(_Knobs):
    burst: int = 8


@pytest.fixture(autouse=True)
def _package_is_this_directory(monkeypatch):
    monkeypatch.setattr(audit_reach, "PACKAGE", Path(__file__).resolve().parent)


def _record(calls):
    recorder = audit_reach.Recorder({})
    with recorder.recording():
        calls()
    return recorder


def _key(cls, name):
    return f"{HERE}::{cls.__qualname__}({name})"


def test_a_field_bound_off_its_default_counts_as_set():
    recorder = _record(lambda: (_Knobs("a"), _Knobs("b", rate=2.0)))
    assert set(recorder.fields) == {_key(_Knobs, "rate"), _key(_Knobs, "tags")}
    assert recorder.fields_unset == {_key(_Knobs, "tags"): []}


def test_a_factory_field_equal_to_a_fresh_value_counts_as_unset():
    recorder = _record(lambda: (_Knobs("a", tags=[]), _Knobs("b")))
    assert _key(_Knobs, "tags") in recorder.fields_unset
    recorder = _record(lambda: _Knobs("a", tags=["x"]))
    assert _key(_Knobs, "tags") not in recorder.fields_unset


def test_init_false_fields_are_not_watched():
    recorder = _record(lambda: _Knobs("a"))
    assert _key(_Knobs, "served") not in recorder.fields


def test_an_inherited_field_belongs_to_its_declaring_class():
    recorder = _record(lambda: _Derived("a", rate=3.0))
    assert _key(_Derived, "rate") not in recorder.fields
    assert _key(_Knobs, "rate") in recorder.fields
    assert recorder.fields_unset == {_key(_Knobs, "tags"): [], _key(_Derived, "burst"): 8}


def test_replace_without_a_change_sets_nothing():
    base = _Knobs("a")
    recorder = _record(lambda: dataclasses.replace(base))
    assert set(recorder.fields_unset) == {_key(_Knobs, "rate"), _key(_Knobs, "tags")}
    recorder = _record(lambda: dataclasses.replace(base, rate=0.5))
    assert set(recorder.fields_unset) == {_key(_Knobs, "tags")}


def test_a_class_never_constructed_has_no_fields():
    recorder = _record(lambda: _Knobs("a"))
    assert not any("_Derived" in key for key in recorder.fields)


def test_a_class_outside_the_package_is_not_watched(monkeypatch):
    monkeypatch.setattr(audit_reach, "PACKAGE", ROOT / "src" / "repro")
    assert audit_reach.field_key(_Knobs, "rate") is None
    assert _record(lambda: _Knobs("a", rate=2.0)).fields == {}
