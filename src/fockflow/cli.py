"""Command-line front end.

Subcommands: table, chsh, sweep, signal, cascade, check. Every
subcommand accepts --json (machine output, schema version 1), --seed,
and --tolerance. Exit codes: 0 success, 2 input error, 3 numeric
invariant failure, 4 I/O failure.

Phases are radians and accept the same constant expressions as the
circuit language (``pi/4``, ``-0.5``; write ``--phase-d=-pi/4`` so the
leading minus is not read as an option). A circuit argument is either a
built-in name (hyperhybrid, hh, swap) or a path to a ``.cdl`` file; file
circuits get their four standard phases bound to the parameters
``$phiL $phiD $phiR $phiU`` and may take extra ``--param name=value``
bindings.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .algebra import Statistics
from .analysis import (
    DEFAULT_SIGNS,
    ChshSettings,
    chsh_grid_search,
    chsh_value,
    coincidence_table,
    completeness,
    correlation,
)
from .cdl import LexError, ParseError, SemanticError, compile_circuit, execute, parse_source
from .cdl.lexer import tokenize
from .experiments import (
    RNG_ID,
    CloneEnsemble,
    PhaseSettings,
    X_MINUS,
    X_PLUS,
    Z_ONE,
    Z_ZERO,
    dial_runner,
    dial_settings,
    run_circuit,
    run_table,
    signaling_decode_exact,
    signaling_decode_mc,
    sorter_cascade,
)

NAMED_CIRCUITS = ("hyperhybrid", "hh", "swap")
_STATS = {
    "fermion": Statistics.FERMION,
    "boson": Statistics.BOSON,
    "distinguishable": Statistics.DISTINGUISHABLE,
}
_CLONE_STATES = {"z0": Z_ZERO, "z1": Z_ONE, "x+": X_PLUS, "x-": X_MINUS}


class _InputError(Exception):
    pass


class _NumericFailure(Exception):
    pass


def parse_phase(text: str) -> float:
    """A single constant expression, e.g. '0.5', 'pi/4', '-3*pi/2'."""
    try:
        toks = tokenize(text)
    except LexError as e:
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
    phases.add_argument(
        "--param",
        action="append",
        type=_param_binding,
        default=None,
        metavar="NAME=EXPR",
        help="extra $parameter bindings for file circuits",
    )

    parser = argparse.ArgumentParser(
        prog="fockflow",
        description="few-particle optical circuit simulator",
    )
    parser.add_argument("--version", action="version", version=f"fockflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", parents=[common, phases], help="coincidence table")
    p.add_argument("circuit", help="hyperhybrid | hh | swap | path/to/file.cdl")
    p.add_argument("--stats", choices=sorted(_STATS))
    p.add_argument(
        "--kind",
        choices=("path-path", "spin-spin", "spin-path", "path-spin"),
        help="which pair of degrees of freedom the parties read out",
    )

    p = sub.add_parser("chsh", parents=[common, phases], help="CHSH combination")
    p.add_argument("circuit")
    p.add_argument("--stats", choices=sorted(_STATS))
    p.add_argument(
        "--kind", choices=("path-path", "spin-spin", "spin-path", "path-spin")
    )
    p.add_argument(
        "--dials",
        type=_dial_quadruple,
        metavar="A0,A1,B0,B1",
        help="two comma-separated dial settings per party (default 0,pi,pi/4,-pi/4)",
    )
    p.add_argument(
        "--search", action="store_true", help="grid-search dials at pi/8 steps"
    )

    p = sub.add_parser("sweep", parents=[common], help="CSV phase sweep")
    p.add_argument("circuit")
    p.add_argument("--stats", choices=sorted(_STATS))
    p.add_argument(
        "--kind", choices=("path-path", "spin-spin", "spin-path", "path-spin")
    )
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


def _phases_dict(settings: PhaseSettings) -> dict:
    return {
        "phiL": settings.phi_l,
        "phiD": settings.phi_d,
        "phiR": settings.phi_r,
        "phiU": settings.phi_u,
    }


def _table_json(table) -> dict:
    return {
        "row_labels": list(table.row_labels),
        "col_labels": list(table.col_labels),
        "cells": [float(x) for x in table.probs.ravel()],
    }


def _read_tree(path: str):
    source = Path(path).read_text()  # OSError propagates as exit 4
    try:
        return parse_source(source)
    except (LexError, ParseError, SemanticError) as e:
        raise _InputError(f"{path}: {e}") from e


def _run_tree(tree, path: str, settings: PhaseSettings, extra_params):
    params = dict(_phases_dict(settings))
    params.update(dict(extra_params or []))
    try:
        compiled = compile_circuit(tree, params=params)
        state = execute(compiled)
    except ValueError as e:
        raise _InputError(f"{path}: {e}") from e
    parts = compiled.partitions
    if "A" not in parts or "B" not in parts:
        raise _InputError(f"{path}: file must measure both parties A and B")
    return compiled, state


def _named_defaults(name: str, args):
    if name == "swap":
        stats = _STATS[args.stats] if args.stats else Statistics.BOSON
        kind = args.kind or "spin-path"
    else:
        stats = _STATS[args.stats] if args.stats else Statistics.FERMION
        kind = args.kind or "path-path"
    return stats, kind


def _circuit_table(args, settings: PhaseSettings):
    """(statistics-name, table, completeness) for a named or file circuit."""
    if args.circuit in NAMED_CIRCUITS:
        stats, kind = _named_defaults(args.circuit, args)
        try:
            run = run_circuit(args.circuit, stats, settings)
            table = run_table(run, kind)
        except ValueError as e:
            raise _InputError(str(e)) from e
        return stats.name.lower(), kind, table, completeness(run, run.basis)
    tree = _read_tree(args.circuit)
    if args.stats and args.stats != tree.statistics:
        raise _InputError(
            f"--stats {args.stats} conflicts with the file's"
            f" 'statistics {tree.statistics}'"
        )
    compiled, state = _run_tree(tree, args.circuit, settings, args.param)
    parts = compiled.partitions
    table = coincidence_table(state, parts["A"], parts["B"])
    kind = f"{parts['A'].kind}-{parts['B'].kind}"
    return tree.statistics, kind, table, completeness(state, compiled.basis)


def _format_table(table) -> list[str]:
    width = max(len(str(lab)) for lab in table.row_labels + table.col_labels) + 2
    head = " " * width + "".join(f"{c:>{width + 10}}" for c in table.col_labels)
    lines = [head]
    for i, row in enumerate(table.row_labels):
        cells = "".join(
            f"{table.probs[i, j]:>{width + 10}.8f}" for j in range(len(table.col_labels))
        )
        lines.append(f"{row:<{width}}" + cells)
    return lines


def cmd_table(args) -> int:
    settings = PhaseSettings(args.phase_l, args.phase_d, args.phase_r, args.phase_u)
    stats_name, kind, table, comp = _circuit_table(args, settings)
    if abs(comp - 1.0) > args.tolerance:
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
        phases=_phases_dict(settings),
        table=_table_json(table),
        e_value=e_value,
        values={"kind": kind},
        completeness_value=comp,
    )
    _emit(args, record, lines)
    return 0


def _dial_runner_for(args):
    if args.circuit in NAMED_CIRCUITS:
        stats, kind = _named_defaults(args.circuit, args)
        try:
            runner = dial_runner(args.circuit, stats, kind)
            runner(0.0, 0.0)  # surface construction errors early
        except ValueError as e:
            raise _InputError(str(e)) from e
        return stats.name.lower(), kind, runner

    tree = _read_tree(args.circuit)

    def runner(a, b):
        compiled, state = _run_tree(tree, args.circuit, dial_settings(a, b), args.param)
        parts = compiled.partitions
        return coincidence_table(state, parts["A"], parts["B"])

    first = _run_tree(tree, args.circuit, dial_settings(0.0, 0.0), args.param)[0]
    kind = f"{first.partitions['A'].kind}-{first.partitions['B'].kind}"
    return tree.statistics, kind, runner


def cmd_chsh(args) -> int:
    stats_name, kind, runner = _dial_runner_for(args)
    if args.search:
        grid = [k * math.pi / 8 for k in range(16)]
        best, settings = chsh_grid_search(runner, grid)
    else:
        dials = args.dials if args.dials else (0.0, math.pi, math.pi / 4, -math.pi / 4)
        settings = ChshSettings(*dials)
        best = chsh_value(runner, settings)
    pairs = [
        ("E00", settings.phi_a0, settings.phi_b0),
        ("E01", settings.phi_a0, settings.phi_b1),
        ("E10", settings.phi_a1, settings.phi_b0),
        ("E11", settings.phi_a1, settings.phi_b1),
    ]
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
        phases=None,
        chsh=best,
        values={
            **e_values,
            "dials": [settings.phi_a0, settings.phi_a1, settings.phi_b0, settings.phi_b1],
            "kind": kind,
            "searched": bool(args.search),
        },
    )
    _emit(args, record, lines)
    return 0


def cmd_sweep(args) -> int:
    if args.circuit not in NAMED_CIRCUITS:
        raise _InputError("sweep runs over the built-in circuits (hyperhybrid, hh, swap)")
    if args.steps < 0:
        raise _InputError("--steps must be nonnegative")
    stats, kind = _named_defaults(args.circuit, args)
    values = [k * 2 * math.pi / args.steps for k in range(args.steps)]
    rows = ["phiL,phiD,phiR,phiU,kind,p00,p01,p10,p11,E"]

    def fmt(x: float) -> str:
        return "%.17g" % x

    for pl in values:
        for pd in values:
            for pr in values:
                for pu in values:
                    settings = PhaseSettings(pl, pd, pr, pu)
                    run = run_circuit(args.circuit, stats, settings)
                    table = run_table(run, kind)
                    sums = table.probs.sum(axis=1)
                    if any(abs(s - 0.25) > args.tolerance for s in sums):
                        raise _NumericFailure(
                            f"row sums {list(sums)} off 1/4 at phases "
                            f"({pl}, {pd}, {pr}, {pu})"
                        )
                    e_value = correlation(table)
                    rows.append(
                        ",".join(
                            [fmt(pl), fmt(pd), fmt(pr), fmt(pu), kind]
                            + [fmt(c) for c in table.probs.ravel()]
                            + [fmt(e_value)]
                        )
                    )
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
    except ValueError as e:
        raise _InputError(str(e)) from e
    label = "dofs" if args.dofs is not None else "copies"
    count = args.dofs if args.dofs is not None else args.copies
    lines = [f"signal {label}={count}", f"exact {float(exact):.12f} ({exact})"]
    values = {"variant": label, "count": count, "exact": float(exact)}
    if args.mc:
        est, err = signaling_decode_mc(trials=args.mc, seed=args.seed, **kwargs)
        lines.append(f"monte-carlo {est:.6f} +- {err:.6f} ({args.mc} trials)")
        values.update({"estimate": est, "stderr": err, "trials": args.mc})
    record = _record(args, "signal", values=values)
    _emit(args, record, lines)
    return 0


def cmd_cascade(args) -> int:
    if args.dofs < 1:
        raise _InputError("--dofs must be at least 1")
    dist = sorter_cascade(CloneEnsemble(args.dofs, _CLONE_STATES[args.state]))
    lines = [f"cascade dofs={args.dofs} state={args.state}"]
    for det in sorted(dist.probs):
        lines.append(f"D{det} {dist.probs[det]:.12f}")
    record = _record(
        args,
        "cascade",
        values={
            "dofs": args.dofs,
            "state": args.state,
            "distribution": {str(k): v for k, v in sorted(dist.probs.items())},
        },
    )
    _emit(args, record, lines)
    return 0


def cmd_check(args) -> int:
    source = Path(args.file).read_text()  # OSError propagates as exit 4
    try:
        tree = parse_source(source)
        compile_circuit(tree)
    except (LexError, ParseError, SemanticError, ValueError) as e:
        print(f"error: {e}")
        return 2
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
    except _InputError as e:
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
