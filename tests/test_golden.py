"""Golden CLI outputs for the bundled circuits.

Every ``table``, ``chsh`` and ``sweep`` command below must print, byte for
byte, the text or ``--json`` output stored under ``tests/golden/``. The
same commands run on the bundled ``.cdl`` files must print the same bytes,
apart from the circuit argument echoed in the text header.

Regenerate the goldens, only when an output change is intended, with
``PYTHONPATH=src python tests/test_golden.py`` from the repository root.
"""

import contextlib
import io
from pathlib import Path

import pytest

from fockflow.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
EXAMPLES = Path(__file__).resolve().parents[1] / "src" / "fockflow" / "examples"
STATS = ("fermion", "boson", "distinguishable")
KINDS = ("path-path", "spin-spin", "spin-path", "path-spin")


def _commands():
    base = [("table", "hh", "--stats", s, "--kind", k) for s in STATS for k in KINDS]
    base.append(("table", "swap"))
    for circuit in ("hh", "swap"):
        base += [("chsh", circuit), ("chsh", circuit, "--search")]
    commands = base + [(*argv, "--json") for argv in base]
    commands += [
        ("sweep", "hh", "--stats", s, "--kind", k, "--steps", "2") for s in STATS for k in KINDS
    ]
    commands.append(("sweep", "swap", "--steps", "2"))
    return commands


COMMANDS = _commands()


def golden_path(argv) -> Path:
    return GOLDEN / ("_".join(a.lstrip("-") for a in argv) + ".out")


def run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, argv
    return out.getvalue()


def as_file_command(argv):
    """The same command on the bundled file that the circuit name stands for."""
    argv = list(argv)
    if argv[1] == "swap":
        argv[1] = str(EXAMPLES / "swap.cdl")
        return argv
    stats = "fermion"
    if "--stats" in argv:
        k = argv.index("--stats")
        stats = argv[k + 1]
        del argv[k : k + 2]
    argv[1] = str(EXAMPLES / f"hh_{stats}.cdl")
    return argv


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv))
def test_named_circuit_output_is_unchanged(argv):
    assert run(argv) == golden_path(argv).read_text()


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv))
def test_bundled_file_prints_what_its_name_prints(argv):
    file_argv = as_file_command(argv)
    want = golden_path(argv).read_text()
    if argv[0] != "sweep" and "--json" not in argv:
        want = want.replace(f"circuit {argv[1]} ", f"circuit {file_argv[1]} ", 1)
    assert run(file_argv) == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for argv in COMMANDS:
        golden_path(argv).write_text(run(argv))
