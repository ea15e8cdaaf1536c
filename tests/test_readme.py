"""The README's examples run as shown.

Every ``fockflow`` command in the CLI section's transcript and in the file
circuit block parses, and every one but the 6,561-point sweep exits 0 from
the repository root; the output lines shown under a ``$`` command appear
verbatim in its stdout.  The library example runs as written.
"""

import re
import shlex
from pathlib import Path

import pytest

from fockflow import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
SLOW = "sweep hh --kind spin-path --steps 9 --out sweep.csv"  # 9^4 points; parsed only


def _block(after: str, fence: str) -> list[str]:
    """The lines of the first ``fence`` code block following the text ``after``."""
    start = README.index(f"```{fence}\n", README.index(after)) + len(fence) + 4
    return README[start:README.index("```", start)].splitlines()


def _transcript() -> list[tuple[str, list[str]]]:
    """(command, shown output lines) for each ``$ fockflow`` line of the CLI block."""
    runs = []
    for line in _block("## CLI", "text"):
        if line.startswith("$ fockflow "):
            runs.append((line[len("$ fockflow "):], []))
        elif line.strip() and runs:
            runs[-1][1].append(line)
    return runs


TRANSCRIPT = _transcript()
FILE_COMMANDS = [
    line[len("fockflow "):]
    for line in _block("File circuits work everywhere", "sh")
    if line.startswith("fockflow ")
]
COMMANDS = [command for command, _ in TRANSCRIPT] + FILE_COMMANDS
SHOWN = {command: [o for o in output if o != "..."] for command, output in TRANSCRIPT}


def _argv(command: str) -> list[str]:
    return shlex.split(command, comments=True)


def _id(command: str) -> str:
    return " ".join(_argv(command))


def test_the_blocks_were_found():
    assert len(TRANSCRIPT) >= 10 and len(FILE_COMMANDS) >= 4
    assert SLOW in map(_id, COMMANDS)


@pytest.mark.parametrize("command", COMMANDS, ids=_id)
def test_command_parses(command):
    cli.build_parser().parse_args(_argv(command))


@pytest.mark.parametrize("command", [c for c in COMMANDS if _id(c) != SLOW], ids=_id)
def test_command_runs_as_shown(command, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert cli.main(_argv(command)) == 0
    stdout = capsys.readouterr().out.splitlines()
    for line in SHOWN.get(command, []):
        assert line in stdout


def test_library_example_runs(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    source = "\n".join(_block("## Library use", "python"))
    assert re.search(r"^from fockflow import", source, re.M)
    exec(compile(source, "README.md", "exec"), {})
    assert capsys.readouterr().out
