"""Command-line front end.

Subcommands: table, chsh, sweep, signal, cascade, check. Every
subcommand accepts --json (machine output, schema version 1; sweep
writes CSV only and exits 2 on it), --seed, and --tolerance. Exit codes:
0 success, 2 input error, 3 numeric invariant failure (including a
final-state norm off 1 by more than --tolerance), 4 I/O failure.

Phases are radians and accept the same constant expressions as the
circuit language (``pi/4``, ``-0.5``; write ``--phase-d=-pi/4`` so the
leading minus is not read as an option). A circuit argument is a path to
a ``.cdl`` file or a name for a bundled one: ``hh``/``hyperhybrid`` is
``examples/hh_<stats>.cdl`` (fermion by default) and ``swap`` is
``examples/swap.cdl``. Each command compiles its circuit once and binds
the phases when it executes it at each point. The four standard phases
are bound to the parameters ``$phiL $phiD $phiR $phiU``: by
``--phase-l/d/r/u`` on ``table``, by the dials alone on ``chsh`` (which
has no ``--phase-*`` flags and runs each dial pair once) and by the grid
on ``sweep``; ``--param name=value`` binds more on ``table`` and
``chsh`` and exits 2 on those four names and on a name the file does not
declare.
``--kind`` re-bins each party's measured slots by path (ports in
the order the party's measure line first names them) or by spin
(internal labels in declaration order); without it a circuit is read
out with its own bins, and its kind is reported in the same path/spin
vocabulary. ``chsh`` and ``sweep`` need bin labels inside the sign map
and some coincidence mass at every point they correlate. ``table``
counts two-particle outcomes only and says so on stderr when the state
has another particle count.
``sweep --steps`` is capped at MAX_SWEEP_STEPS, ``cascade --dofs`` at
MAX_CASCADE_DOFS and ``signal --mc`` trials x copies at
experiments.MAX_MC_DRAWS; larger values exit 2.

numpy loads only for ``chsh --search`` (the dial-grid broadcast) and for
``signal --mc`` past experiments.MAX_PURE_MC_DRAWS draws (trials x
copies), which its seeded ``default_rng`` draws; smaller runs replay the
same stream in pure Python.  Every other command runs without importing
it.  Start-up loads neither numpy nor the standard library's data-class
generator with its ``inspect`` import: the package's records subclass
``_record.Record``, and the lexer's ``Token`` is a ``__slots__`` class.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from pathlib import Path

from . import __version__
from .algebra import Statistics, ZeroNorm, detector_distribution
from .analysis import (
    DEFAULT_SIGNS,
    ZeroCoincidenceMass,
    chsh_grid_search,
    chsh_value,
    coincidence_table,
    completeness,
    correlation,
)
from .cdl import (
    CdlError,
    compile_circuit,
    execute,
    parse_source,
    rebin,
)
from .cdl.lexer import tokenize
from .experiments import (
    PHASES,
    RNG_ID,
    TABLE_KINDS,
    X_MINUS,
    X_PLUS,
    Z_ONE,
    Z_ZERO,
    dial_settings,
    signaling_decode_exact,
    signaling_decode_mc,
    sorter_cascade,
)

MAX_SWEEP_STEPS = 16  # 16^4 = 65,536 circuit runs
MAX_CASCADE_DOFS = 16  # sorter_cascade tabulates 2^dofs outcome strings
_EXAMPLES = Path(__file__).resolve().parent / "examples"
_KINDS = {"path": "external", "spin": "internal"}
_KIND_NAMES = {v: k for k, v in _KINDS.items()}
_STATS = tuple(sorted(s.value for s in Statistics))
_CLONE_STATES = {"z0": Z_ZERO, "z1": Z_ONE, "x+": X_PLUS, "x-": X_MINUS}


class _InputError(Exception):
    pass


class _NumericFailure(Exception):
    pass


def parse_phase(text: str) -> float:
    """A single constant expression, e.g. '0.5', 'pi/4', '-3*pi/2'."""
    try:
        toks = tokenize(text)
    except CdlError as e:
        raise argparse.ArgumentTypeError(str(e)) from e
    if len(toks) != 2 or toks[0].kind != "number":
        raise argparse.ArgumentTypeError(f"not a constant expression: {text!r}")
    return toks[0].value


def _param_binding(text: str) -> tuple[str, float]:
    name, eq, value = text.partition("=")
    if not eq or not name:
        raise argparse.ArgumentTypeError(f"expected name=value, got {text!r}")
    return name, parse_phase(value)


def _dial_quadruple(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"expected four comma-separated dials, got {text!r}")
    return tuple(parse_phase(p) for p in parts)


def _tolerance(text: str) -> float:
    """A finite positive float: nan, inf or <= 0 would disable or break every check."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return value


def _trials(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a whole number >= 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the JSON record")
    common.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    common.add_argument(
        "--tolerance",
        type=_tolerance,
        default=1e-9,
        help="numeric invariant tolerance, finite and positive",
    )

    phases = argparse.ArgumentParser(add_help=False)
    for port in ("l", "d", "r", "u"):
        phases.add_argument(
            f"--phase-{port}", type=parse_phase, default=0.0, metavar="EXPR"
        )

    params = argparse.ArgumentParser(add_help=False)
    params.add_argument(
        "--param",
        action="append",
        type=_param_binding,
        default=None,
        metavar="NAME=EXPR",
        help="extra $parameter bindings",
    )

    circuit = argparse.ArgumentParser(add_help=False)
    circuit.add_argument("circuit", help="hyperhybrid | hh | swap | path/to/file.cdl")
    circuit.add_argument("--stats", choices=_STATS, help="must match the file's; picks the hh file")
    circuit.add_argument(
        "--kind",
        choices=TABLE_KINDS,
        help="which pair of degrees of freedom the parties read out",
    )

    parser = argparse.ArgumentParser(
        prog="fockflow",
        description="few-particle optical circuit simulator",
    )
    parser.add_argument("--version", action="version", version=f"fockflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table", parents=[circuit, common, phases, params], help="coincidence table")

    p = sub.add_parser("chsh", parents=[circuit, common, params], help="CHSH combination")
    g = p.add_mutually_exclusive_group()
    g.add_argument(
        "--dials",
        type=_dial_quadruple,
        metavar="A0,A1,B0,B1",
        help="two comma-separated dial settings per party (default 0,pi,pi/4,-pi/4)",
    )
    g.add_argument("--search", action="store_true", help="grid-search dials at pi/8 steps")

    p = sub.add_parser("sweep", parents=[circuit, common], help="CSV phase sweep")
    p.add_argument("--steps", type=int, default=9, help="grid points per phase axis")
    p.add_argument("--out", default="-", help="output path, '-' for stdout")

    p = sub.add_parser("signal", parents=[common], help="decode-probability bounds")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--dofs", type=int, help="degrees of freedom per particle")
    g.add_argument("--copies", type=int, help="hypothetical clones per measurement")
    p.add_argument(
        "--mc", type=_trials, metavar="TRIALS", help="add a Monte Carlo estimate (TRIALS >= 1)"
    )

    p = sub.add_parser("cascade", parents=[common], help="sorter cascade readout")
    p.add_argument("--dofs", type=int, default=2)
    p.add_argument("--state", choices=sorted(_CLONE_STATES), default="z0")

    p = sub.add_parser("check", parents=[common], help="validate a circuit file")
    p.add_argument("file")

    return parser


def _record(args, experiment, statistics=None, phases=None, table=None, e_value=None,
            chsh=None, values=None, completeness_value=None):
    return {
        "schema": 1,
        "experiment": experiment,
        "statistics": statistics,
        "phases": phases,
        "table": table,
        "E": e_value,
        "chsh": chsh,
        "values": values or {},
        "metadata": {
            "version": __version__,
            "seed": args.seed,
            "tolerance": args.tolerance,
            "rng": RNG_ID,
            "sign_map": dict(sorted(DEFAULT_SIGNS.items())),
            "completeness": completeness_value,
        },
    }


def _emit(args, record, human_lines):
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _table_json(table) -> dict:
    return {
        "row_labels": list(table.row_labels),
        "col_labels": list(table.col_labels),
        "cells": [p for row in table.probs for p in row],
    }


def _read_tree(path: str):
    try:
        source = Path(path).read_text(encoding="utf-8")  # OSError propagates as exit 4
    except UnicodeDecodeError as e:
        raise _InputError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from e
    try:
        return parse_source(source)
    except CdlError as e:
        raise _InputError(f"{path}: {e}") from e


def _compile(path: str, tree):
    try:
        return compile_circuit(tree)
    except ValueError as e:
        raise _InputError(f"{path}: {e}") from e


def _circuit_path(args) -> str:
    """The file a circuit argument stands for; names pick a bundled example."""
    if args.circuit in ("hh", "hyperhybrid"):
        return str(_EXAMPLES / f"hh_{args.stats or 'fermion'}.cdl")
    if args.circuit == "swap":
        return str(_EXAMPLES / "swap.cdl")
    return args.circuit


def _runner(args, signed: bool = False):
    """Parse and compile the circuit once: (compiled, kind, (part A, part B), run).

    ``run(phases)`` executes the compiled circuit at that phase point, a
    binding keyed by ``PHASES``, with any --param bound too, reads its
    ``detector_distribution`` once, checks the norm^2 that comes with it
    against --tolerance and returns (detector probabilities, coincidence
    table); a zero state fails the check too.  ``signed`` rejects bin
    labels outside the correlation sign map.  ``--param`` may not bind a
    standard phase, which each command binds itself, and once the file
    compiles it may bind only a `$name` that ``compiled.params`` lists.
    """
    path = _circuit_path(args)
    tree = _read_tree(path)
    if args.stats and args.stats != tree.statistics:
        raise _InputError(
            f"--stats {args.stats} conflicts with the file's"
            f" 'statistics {tree.statistics}'"
        )
    extra = dict(getattr(args, "param", None) or [])
    bound = [name for name in extra if name in PHASES]
    if bound:
        raise _InputError(
            f"--param {', '.join(bound)}: {', '.join(PHASES)} are bound by"
            " --phase-l/d/r/u on table and by the dials on chsh"
        )
    compiled = _compile(path, tree)
    declared = {name for _, name, _ in compiled.params}
    unknown = [name for name in extra if name not in declared]
    if unknown:
        raise _InputError(
            f"--param {', '.join(unknown)}: {path} declares no such parameter"
            f" (it has {', '.join(sorted(declared)) or 'none'})"
        )
    if "A" not in compiled.partitions or "B" not in compiled.partitions:
        raise _InputError(f"{path}: file must measure both parties A and B")
    if args.kind:
        parts = tuple(
            rebin(compiled, party, _KINDS[word]) for party, word in zip("AB", args.kind.split("-"))
        )
    else:
        parts = (compiled.partitions["A"], compiled.partitions["B"])
    kind = "-".join(_KIND_NAMES[part.kind] for part in parts)
    if signed:
        missing = [lab for part in parts for lab in part.labels() if lab not in DEFAULT_SIGNS]
        if missing:
            raise _InputError(f"{path}: bin labels {missing} are not in the sign map")

    def run(phases: dict):
        state = execute(compiled, {**phases, **extra})
        try:
            probs, n2 = detector_distribution(state)
        except ZeroNorm:
            raise _NumericFailure("final state norm^2 = 0, expected 1") from None
        if not abs(n2 - 1.0) <= args.tolerance:  # a NaN norm fails every comparison
            raise _NumericFailure(f"final state norm^2 = {n2!r}, expected 1")
        return probs, coincidence_table(probs, *parts)

    return compiled, kind, parts, run


def _format_table(table) -> list[str]:
    width = max(len(str(lab)) for lab in table.row_labels + table.col_labels) + 2
    head = " " * width + "".join(f"{c:>{width + 10}}" for c in table.col_labels)
    lines = [head]
    for label, row in zip(table.row_labels, table.probs):
        lines.append(f"{label:<{width}}" + "".join(f"{p:>{width + 10}.8f}" for p in row))
    return lines


def cmd_table(args) -> int:
    phases = dict(zip(PHASES, (args.phase_l, args.phase_d, args.phase_r, args.phase_u)))
    phases.update(args.param or [])  # the record names every phase the circuit ran at
    compiled, kind, _, run = _runner(args)
    stats_name = compiled.tree.statistics
    probs, table = run(phases)
    count = len(next(iter(probs)))  # every pattern lists one slot per particle
    if count != 2:
        print(
            f"note: the table counts two-particle outcomes only; this state has {count} particles",
            file=sys.stderr,
        )
    comp = completeness(probs)
    if not abs(comp - 1.0) <= args.tolerance:  # and so does a NaN cell
        raise _NumericFailure(f"outcome probabilities sum to {comp!r}, not 1")
    try:
        e_value = correlation(table)
    except ValueError:
        e_value = None  # labels outside the standard sign map
    lines = [f"circuit {args.circuit}  statistics {stats_name}  kind {kind}"]
    lines += _format_table(table)
    lines.append(f"completeness {comp:.12f}")
    if e_value is not None:
        lines.append(f"E {e_value:.12f}")
    record = _record(
        args,
        "table",
        statistics=stats_name,
        phases=phases,
        table=_table_json(table),
        e_value=e_value,
        values={"kind": kind},
        completeness_value=comp,
    )
    _emit(args, record, lines)
    return 0


def cmd_chsh(args) -> int:
    compiled, kind, _, run = _runner(args, signed=True)
    stats_name = compiled.tree.statistics

    @functools.cache
    def runner(a, b):  # the search or chsh_value, then the E lines, read each pair
        return run(dial_settings(a, b))[1]

    if args.search:
        grid = [k * math.pi / 8 for k in range(16)]
        best, dials = chsh_grid_search(runner, grid)
    else:
        dials = args.dials or (0.0, math.pi, math.pi / 4, -math.pi / 4)
        best = chsh_value(runner, dials)
    a0, a1, b0, b1 = dials
    pairs = [("E00", a0, b0), ("E01", a0, b1), ("E10", a1, b0), ("E11", a1, b1)]
    e_values = {}
    lines = [f"circuit {args.circuit}  statistics {stats_name}  kind {kind}"]
    for label, a, b in pairs:
        e_values[label] = correlation(runner(a, b))
        lines.append(f"{label}(a={a:.6f}, b={b:.6f}) = {e_values[label]: .12f}")
    lines.append(f"CHSH {best:.12f}")
    record = _record(
        args,
        "chsh",
        statistics=stats_name,
        phases=dict(args.param) if args.param else None,
        chsh=best,
        values={
            **e_values,
            "dials": list(dials),
            "kind": kind,
            "searched": bool(args.search),
        },
    )
    _emit(args, record, lines)
    return 0


def cmd_sweep(args) -> int:
    if args.json:
        raise _InputError("sweep writes CSV; --json is not supported")
    if not 0 <= args.steps <= MAX_SWEEP_STEPS:
        raise _InputError(f"--steps must be between 0 and {MAX_SWEEP_STEPS}")
    _, kind, (part_a, part_b), run = _runner(args, signed=True)
    values = [k * 2 * math.pi / args.steps for k in range(args.steps)]

    def fmt(x: float) -> str:
        return "%.17g" % x

    cells = [f"p{i}{j}" for i in range(len(part_a.bins)) for j in range(len(part_b.bins))]
    rows = [",".join([*PHASES, "kind", *cells, "E"])]
    for phases in itertools.product(values, repeat=4):  # every point runs before any is written
        table = run(dict(zip(PHASES, phases)))[1]
        flat = [p for row in table.probs for p in row]
        rows.append(",".join([*map(fmt, phases), kind, *map(fmt, flat), fmt(correlation(table))]))
    text = "\n".join(rows) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    return 0


def cmd_signal(args) -> int:
    kwargs = {"dofs": args.dofs} if args.dofs is not None else {"copies": args.copies}
    try:
        exact = signaling_decode_exact(**kwargs)
        if args.mc:
            est, err = signaling_decode_mc(trials=args.mc, seed=args.seed, **kwargs)
    except ValueError as e:
        raise _InputError(str(e)) from e
    label = "dofs" if args.dofs is not None else "copies"
    count = args.dofs if args.dofs is not None else args.copies
    lines = [f"signal {label}={count}", f"exact {exact:.12f} ({exact})"]
    values = {"variant": label, "count": count, "exact": exact}
    if args.mc:
        lines.append(f"monte-carlo {est:.6f} +- {err:.6f} ({args.mc} trials)")
        values.update({"estimate": est, "stderr": err, "trials": args.mc})
    record = _record(args, "signal", values=values)
    _emit(args, record, lines)
    return 0


def cmd_cascade(args) -> int:
    if not 1 <= args.dofs <= MAX_CASCADE_DOFS:
        raise _InputError(f"--dofs must be between 1 and {MAX_CASCADE_DOFS}")
    dist = sorter_cascade(_CLONE_STATES[args.state], args.dofs)
    lines = [f"cascade dofs={args.dofs} state={args.state}"]
    for det, p in dist.items():
        lines.append(f"D{det} {p:.12f}")
    record = _record(
        args,
        "cascade",
        values={
            "dofs": args.dofs,
            "state": args.state,
            "distribution": {str(k): v for k, v in dist.items()},
        },
    )
    _emit(args, record, lines)
    return 0


def cmd_check(args) -> int:
    tree = _read_tree(args.file)
    _compile(args.file, tree)
    counts = (len(tree.particles), len(tree.elements), len(tree.measures))
    record = _record(
        args,
        "check",
        statistics=tree.statistics,
        values={
            "particles": counts[0],
            "elements": counts[1],
            "measurements": counts[2],
        },
    )
    _emit(
        args,
        record,
        [f"ok: {counts[0]} particles, {counts[1]} elements, {counts[2]} measurements"],
    )
    return 0


_COMMANDS = {
    "table": cmd_table,
    "chsh": cmd_chsh,
    "sweep": cmd_sweep,
    "signal": cmd_signal,
    "cascade": cmd_cascade,
    "check": cmd_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (_InputError, ZeroCoincidenceMass) as e:  # no coincidences: E is undefined
        print(f"error: {e}", file=sys.stderr)
        return 2
    except _NumericFailure as e:
        print(f"numeric invariant failure: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 4


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
