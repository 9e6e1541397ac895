"""Every ``$ repro-odenet ...`` example in README.md parses with the CLI's parser.

The README drifts when a flag is renamed or deleted; this keeps its console
examples runnable as written.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from repro.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
_PROMPT = re.compile(r"^\s*\$ repro-odenet\s")


def readme_commands(text: str) -> list:
    """``(line number, argv)`` of each ``$ repro-odenet`` command in ``text``:
    ``\\`` continuations joined, a trailing ``# ...`` comment dropped."""

    lines = text.splitlines()
    commands = []
    i = 0
    while i < len(lines):
        start = i
        command = lines[i]
        if _PROMPT.match(command):
            while command.endswith("\\") and i + 1 < len(lines):
                i += 1
                command = command[:-1] + " " + lines[i]
            commands.append((start + 1, shlex.split(command, comments=True)[2:]))
        i += 1
    return commands


def test_collector_joins_continuations_and_drops_comments():
    text = "$ repro-odenet sweep --models A \\\n      --format csv   # a comment\n$ ls\n"
    assert readme_commands(text) == [(1, ["sweep", "--models", "A", "--format", "csv"])]


def test_every_readme_cli_example_parses(capsys):
    commands = readme_commands(README.read_text())
    assert commands, "no '$ repro-odenet' examples found in README.md"
    failures = []
    for line, argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            error = capsys.readouterr().err.strip().splitlines()[-1]
            failures.append(f"README.md:{line}: {shlex.join(argv)}: {error}")
    assert not failures, "\n".join(failures)
