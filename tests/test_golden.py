"""Golden CLI outputs for the bundled circuits.

Every ``table``, ``chsh``, ``sweep``, ``signal`` and ``cascade`` command
below must print, byte for byte, the text or ``--json`` output stored under
``tests/golden/``. The circuit commands run on the bundled ``.cdl`` files
must print the same bytes, apart from the circuit argument echoed in the
text header.

``PYTHONPATH=src python tests/test_golden.py``, from the repository root,
writes the goldens that do not exist yet and prints each path it writes;
it never overwrites one.  To refresh a golden on purpose, when an output
change is intended, delete its file first.
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
    base += [
        ("chsh", "hh", "--stats", s, *search)
        for s in ("boson", "distinguishable")
        for search in ((), ("--search",))
    ]
    # plain decimals: golden_path joins argv into a file name, so no "/"
    base += [
        ("table", "hh", "--phase-d=0.5", "--phase-u=-0.7"),
        ("table", "swap", "--phase-r=1.9"),
        ("chsh", "hh", "--dials", "0.1,1,2,3"),
        ("chsh", "swap", "--dials", "0,1.5,0.75,-0.75"),
    ]
    commands = base + [(*argv, "--json") for argv in base]
    commands += [
        ("sweep", "hh", "--stats", s, "--kind", k, "--steps", "2") for s in STATS for k in KINDS
    ]
    commands.append(("sweep", "swap", "--steps", "2"))
    commands += [("sweep", "hh", "--stats", s, "--steps", "3") for s in STATS]
    commands.append(("sweep", "swap", "--steps", "3"))
    return commands


COMMANDS = _commands()
CASCADES = [
    ("cascade", "--dofs", str(dofs), "--state", state, *json)
    for dofs in (2, 3, 5)
    for state in ("z0", "x+", "x-")
    for json in ((), ("--json",))
]
# the seeded Monte Carlo records pin numpy's Generator stream as well
SIGNALS = [
    ("signal", variant, count, *mc, *json)
    for variant, count in (("--dofs", "3"), ("--copies", "4"))
    for mc in ((), ("--mc", "20000", "--seed", "7"))
    for json in ((), ("--json",))
] + [
    # odd trials leave a buffered 32-bit word and the seed spans two words:
    # dofs 40 reads 64-bit outputs, dofs 3 starts its readout on that word
    ("signal", "--dofs", dofs, "--mc", "3001", "--seed", "12345678901234567890")
    for dofs in ("40", "3")
] + [("signal", "--copies", "4", "--mc", "40000", "--seed", "7")]


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


@pytest.mark.parametrize("argv", COMMANDS + CASCADES + SIGNALS, ids=lambda argv: " ".join(argv))
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
    for argv in COMMANDS + CASCADES + SIGNALS:
        path = golden_path(argv)
        if not path.exists():
            path.write_text(run(argv))
            print(path)
