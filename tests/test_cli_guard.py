"""Generated-argv guard: no flag value makes the CLI crash.

Each example takes a small valid invocation of one subcommand and overrides
one flag from that subcommand's own parser with a valid, boundary (0, -1,
nan, inf, an empty list) or junk value.  Whatever the value, the CLI must
exit 0 or 2 without a traceback, and ``--json`` output must be strict JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main, registered_commands

#: A small, fast, valid invocation of every subcommand ("{tmp}" = a scratch dir).
BASE_ARGV = {
    "table1": [], "table2": [], "table3": [], "table4": [], "table5": [],
    "figure5": [], "figure6": [], "boards": [], "faults": [], "timing": [],
    "offload": ["rODENet-3"],
    "energy": ["rODENet-3"],
    "training": [],
    "eval": ["--depth", "20"],
    "sweep": ["--models", "rODENet-3", "--depths", "20"],
    "sim": ["rODENet-1", "--depth", "20", "--requests", "5", "--rate", "3"],
    "fleet": ["--requests", "40"],
    "optimize": ["--objective", "board_price_usd", "--n-units", "16", "--requests", "10"],
    "accuracy-sweep": ["--images", "1", "--formats", "16:8"],
    "rtl": ["--block", "layer1", "--qformat", "8:4", "--n-units", "2", "--out", "{tmp}"],
}

#: Flags that name a place rather than a value (drawing one would write files
#: outside the scratch directory).
PATH_FLAGS = {"--out"}

BOUNDARY = ["0", "-1", "nan", "inf", "-inf"]
JUNK = ["x", "1:x", "", "bogus,", "1e400"]


def _flags(name: str):
    parser = argparse.ArgumentParser()
    configure = registered_commands()[name].configure
    if configure is not None:
        configure(parser)
    return [
        action for action in parser._actions
        if action.option_strings and action.option_strings[0] not in PATH_FLAGS
        and not isinstance(action, argparse._HelpAction)
    ]


FLAGS = {name: _flags(name) for name in BASE_ARGV}


def _valid_values(action) -> list:
    if action.choices is not None:
        return [str(c) for c in action.choices]
    default = action.default
    values = ["1"]
    if isinstance(default, (int, float, str)) and not isinstance(default, bool):
        values.append(str(default))
    return values


@st.composite
def invocations(draw):
    name = draw(st.sampled_from(sorted(BASE_ARGV)))
    argv = [name, *BASE_ARGV[name]]
    if FLAGS[name]:
        action = draw(st.sampled_from(FLAGS[name]))
        flag = action.option_strings[0]
        if action.nargs == 0:
            argv.append(flag)
        else:
            pool = _valid_values(action) + BOUNDARY + JUNK
            if action.nargs == "*":
                values = draw(st.lists(st.sampled_from(pool), max_size=2))
            else:
                values = [draw(st.sampled_from(pool))]
            argv.extend([flag, *values])
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(argv=invocations())
def test_no_flag_value_crashes_the_cli(tmp_path_factory, argv):
    if "{tmp}" in argv:
        argv = [a.replace("{tmp}", str(tmp_path_factory.mktemp("rtl"))) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejections
            code = exc.code
    assert code in (0, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0 and "--json" in argv:
        json.loads(out.getvalue(), parse_constant=lambda token: pytest.fail(f"{argv}: {token}"))
