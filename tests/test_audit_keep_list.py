"""The reach audit's keep-list names real code, each entry with a reason.

``benchmarks/audit_reach.py`` fails on a stale entry only after its
half-minute driven run; this check reads ``audit_reach_keep.txt`` against
the source tree (AST only, nothing imported from ``repro``) so a renamed
function, parameter or dataclass field, or an entry without a reason, fails
in tier-1.
"""

from __future__ import annotations

import ast
import fnmatch
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
try:
    import audit_reach
finally:
    sys.path.remove(str(ROOT / "benchmarks"))

KEEP = audit_reach.read_keep_list()
FUNCTIONS = list(audit_reach.src_functions().values())


def _is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return getattr(target, "attr", getattr(target, "id", None)) == "dataclass"


def _defaulted_fields(cls: ast.ClassDef):
    """Names of the class body's init fields with a default or default factory."""

    for node in cls.body:
        if not (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                and node.value is not None) or "ClassVar" in ast.unparse(node.annotation):
            continue
        value = node.value
        if isinstance(value, ast.Call) and ast.unparse(value.func).endswith("field"):
            options = {kw.arg: ast.unparse(kw.value) for kw in value.keywords}
            if options.get("init") == "False" or not {"default", "default_factory"} & set(options):
                continue
        yield node.target.id


def _dataclass_fields():
    """``path::Class`` -> defaulted init fields, for every ``@dataclass`` under src/repro."""

    out = {}

    def visit(node: ast.AST, rel: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if any(_is_dataclass_decorator(d) for d in child.decorator_list):
                    out[f"{rel}::{prefix}{child.name}"] = tuple(_defaulted_fields(child))
                visit(child, rel, f"{prefix}{child.name}.")

    for path in sorted(audit_reach.PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text()), str(path.relative_to(audit_reach.PACKAGE)), "")
    return out


DATACLASSES = _dataclass_fields()


def _split(entry: str):
    """``path::qualname`` glob and the parameter or field name (``None`` for a function entry)."""

    if entry.endswith(")"):
        pattern, _, param = entry[:-1].partition("(")
        return pattern, param
    return entry, None


def _names_a_def(pattern: str) -> bool:
    return any(fnmatch.fnmatchcase(fn.key, pattern) for fn in FUNCTIONS)


#: ``path::Class(field)`` entries: a name in parentheses after no def.
FIELD_ENTRIES = sorted(e for e in KEEP if e.endswith(")") and not _names_a_def(_split(e)[0]))


def test_the_keep_list_parses():
    assert KEEP, "audit_reach_keep.txt has no entries"


@pytest.mark.parametrize("entry", sorted(KEEP))
def test_entry_has_a_reason(entry):
    assert KEEP[entry], f"keep-list entry without a reason: {entry}"


@pytest.mark.parametrize("entry", sorted(set(KEEP) - set(FIELD_ENTRIES)))
def test_entry_names_a_real_file_and_def(entry):
    pattern, _ = _split(entry)
    path = pattern.partition("::")[0]
    assert (audit_reach.PACKAGE / path).is_file(), f"no file src/repro/{path}: {entry}"
    assert _names_a_def(pattern), f"no def matches {pattern}"


@pytest.mark.parametrize("entry", FIELD_ENTRIES)
def test_field_entry_names_a_defaulted_field_of_a_dataclass(entry):
    pattern, name = _split(entry)
    matches = [key for key in DATACLASSES if fnmatch.fnmatchcase(key, pattern)]
    assert matches, f"no @dataclass class matches {pattern}"
    assert any(name in DATACLASSES[key] for key in matches), (
        f"{pattern} has no init field {name!r} with a default"
    )


def test_the_field_map_reads_dataclasses_only():
    assert "fleet/cluster.py::FleetScenario" in DATACLASSES
    assert "trace" in DATACLASSES["fleet/cluster.py::FleetScenario"]
    assert "boards" in DATACLASSES["fleet/cluster.py::FleetScenario"]
    assert "sim/workload.py::Request" in DATACLASSES
    assert "completed" not in DATACLASSES["sim/workload.py::Request"]  # init=False
    assert "index" not in DATACLASSES["sim/workload.py::Request"]  # no default
    assert not any(key.endswith("::Balancer") for key in DATACLASSES)  # a plain class


@pytest.mark.parametrize("entry", sorted(e for e in KEEP if e.endswith(")") and e not in FIELD_ENTRIES))
def test_parameter_entry_names_a_defaulted_parameter(entry):
    pattern, param = _split(entry)
    matches = [fn for fn in FUNCTIONS if fnmatch.fnmatchcase(fn.key, pattern)]
    assert any(param in fn.defaulted for fn in matches), (
        f"{pattern} has no parameter {param!r} with a default"
    )
