"""The reach audit's driver loop: one failing or raising entrypoint does not
stop the others.

``benchmarks/audit_reach.py`` drives every entrypoint in one half-minute
run; these checks feed its loop small stand-in drivers instead.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
try:
    import audit_reach
finally:
    sys.path.remove(str(ROOT / "benchmarks"))


def _raise():
    raise ValueError("bad axis")


def test_a_raising_driver_is_recorded_and_the_rest_still_run():
    ran = []

    def ok(name):
        def drive():
            ran.append(name)
            return 0
        return drive

    failures = audit_reach.run_drivers([
        ("first", ok("first")),
        ("boom", _raise),
        ("exit 2", lambda: 2),
        ("last", ok("last")),
    ])
    assert ran == ["first", "last"]
    assert failures == [
        "entrypoint raised ValueError: bad axis (boom)",
        "entrypoint did not exit 0: exit 2 (exit 2)",
    ]


def test_all_drivers_passing_is_no_failure():
    assert audit_reach.run_drivers([("a", lambda: 0), ("b", lambda: 0)]) == []


def test_interrupt_is_not_swallowed():
    def interrupt():
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        audit_reach.run_drivers([("stop", interrupt)])
