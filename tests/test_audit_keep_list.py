"""The reach audit's keep-list names real code, each entry with a reason.

``benchmarks/audit_reach.py`` fails on a stale entry only after its
half-minute driven run; this check reads ``audit_reach_keep.txt`` against
the source tree (AST only, nothing imported from ``repro``) so a renamed
function or parameter, or an entry without a reason, fails in tier-1.
"""

from __future__ import annotations

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


def _split(entry: str):
    """``path::qualname`` glob and the parameter name (``None`` for a function entry)."""

    if entry.endswith(")"):
        pattern, _, param = entry[:-1].partition("(")
        return pattern, param
    return entry, None


def test_the_keep_list_parses():
    assert KEEP, "audit_reach_keep.txt has no entries"


@pytest.mark.parametrize("entry", sorted(KEEP))
def test_entry_has_a_reason(entry):
    assert KEEP[entry], f"keep-list entry without a reason: {entry}"


@pytest.mark.parametrize("entry", sorted(KEEP))
def test_entry_names_a_real_file_and_def(entry):
    pattern, _ = _split(entry)
    path = pattern.partition("::")[0]
    assert (audit_reach.PACKAGE / path).is_file(), f"no file src/repro/{path}: {entry}"
    assert any(fnmatch.fnmatchcase(fn.key, pattern) for fn in FUNCTIONS), (
        f"no def matches {pattern}"
    )


@pytest.mark.parametrize("entry", sorted(e for e in KEEP if e.endswith(")")))
def test_parameter_entry_names_a_defaulted_parameter(entry):
    pattern, param = _split(entry)
    matches = [fn for fn in FUNCTIONS if fnmatch.fnmatchcase(fn.key, pattern)]
    assert any(param in fn.defaulted for fn in matches), (
        f"{pattern} has no parameter {param!r} with a default"
    )
