"""The reach audit's parameter pass: what counts as setting a parameter.

``benchmarks/audit_reach.py`` runs its pass over a half-minute driven run;
these checks drive its pieces (the AST map, the "differs from the default"
rule and the profile hook) on small functions defined here, so a change to
the rule fails in tier-1.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
try:
    import audit_reach
finally:
    sys.path.remove(str(ROOT / "benchmarks"))


def _record(fn, calls):
    """Run ``calls()`` under a recorder watching ``fn``; the recorder."""

    code = fn.__code__
    recorder = audit_reach.Recorder({(code.co_filename, code.co_firstlineno): code.co_name})
    with recorder.recording():
        calls()
    return recorder, (code.co_filename, code.co_firstlineno)


def _knobs(a, b=1, *, c=None, d="x"):
    return a


def _stepper(start, step=1):
    while True:
        yield start
        start += step
        step *= 2  # the body rebinding a parameter is not a caller setting it


class _NoPlainEq:
    def __eq__(self, other):
        return "maybe"


class _RaisingEq:
    def __eq__(self, other):
        raise RuntimeError("no comparison")


class TestDiffers:
    def test_the_default_object_itself_is_unset(self):
        default = object()
        assert not audit_reach._differs(default, default)

    def test_an_equal_value_is_unset(self):
        assert not audit_reach._differs(1.0, 1)
        assert not audit_reach._differs("".join(["a", "b"]), "ab")

    def test_a_different_value_is_set(self):
        assert audit_reach._differs(2, 1)
        assert audit_reach._differs(0.5, None)

    def test_an_array_counts_as_set(self):
        # ``==`` gives an array (or a numpy bool), never a plain ``True``.
        assert audit_reach._differs(np.zeros(3), None)
        assert audit_reach._differs(np.array(1), 1)

    def test_an_eq_that_is_not_a_plain_bool_or_raises_counts_as_set(self):
        assert audit_reach._differs(_NoPlainEq(), 0)
        assert audit_reach._differs(_RaisingEq(), 0)


def test_defaults_cover_positional_and_keyword_only():
    assert audit_reach._defaults(_knobs) == {"b": 1, "c": None, "d": "x"}


def test_the_ast_map_lists_only_parameters_with_a_default():
    functions = {fn.key: fn for fn in audit_reach.src_functions().values()}
    sgd = functions["nn/optim.py::SGD.__init__"]
    assert sgd.defaulted == ("lr", "momentum", "weight_decay")  # not ``params``
    assert sgd.param_key("momentum") == "nn/optim.py::SGD.__init__(momentum)"


def test_the_recorder_keeps_only_parameters_no_call_set():
    recorder, key = _record(_knobs, lambda: (_knobs(0), _knobs(0, 2), _knobs(0, d="x")))
    assert key in recorder.started
    assert recorder.unset[key] == {"c": None, "d": "x"}


def test_the_recorder_checks_a_generator_on_its_first_resume_only():
    def calls():
        steps = _stepper(0)
        for _ in range(3):
            next(steps)

    recorder, key = _record(_stepper, calls)
    assert recorder.unset[key] == {"step": 1}

    recorder, key = _record(_stepper, lambda: next(_stepper(0, step=2)))
    assert recorder.unset[key] == {}


def test_a_recording_restores_the_profile_hook():
    with audit_reach.Recorder({}).recording():
        assert sys.getprofile() is not None
    assert sys.getprofile() is None


def test_an_unwatched_function_is_only_marked_started():
    recorder = audit_reach.Recorder({})
    with recorder.recording():
        _knobs(0, 2)
    code = _knobs.__code__
    assert (code.co_filename, code.co_firstlineno) in recorder.started
    assert recorder.unset == {}
