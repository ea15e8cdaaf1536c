"""Canonical text form for circuit trees.

Comments never survive a parse, so printing is lossy only in comments
and layout. Numbers are printed with 17 significant digits; re-parsing
recovers the exact double.  The round-trip tests print a parsed tree
and parse the text again.
"""

from __future__ import annotations

from fockflow.cdl.parser import (
    CircuitSpecTree,
    ExchangeStmt,
    PhaseStmt,
    SorterStmt,
    SplitterStmt,
)


def _num(value: float) -> str:
    return "%.17g" % value


def _routes(routes) -> str:
    return " ".join(f"{r.src.name}->{r.dst.name}" for r in routes)


def pretty_print(tree: CircuitSpecTree) -> str:
    lines = [
        "internal " + " ".join(r.name for r in tree.internals),
        "external " + " ".join(r.name for r in tree.externals),
        "statistics " + tree.statistics,
    ]
    for part in tree.particles:
        lines.append(f"particle {part.internal.name} {part.external.name}")
    for el in tree.elements:
        if isinstance(el, SplitterStmt):
            lines.append(
                f"{el.kind} {el.in_a.name} {el.in_b.name} {el.out_t.name} {el.out_r.name}"
            )
        elif isinstance(el, PhaseStmt):
            arg = f"${el.arg.param}" if el.arg.param is not None else _num(el.arg.value)
            lines.append(f"phase {el.port.name} {arg}")
        elif isinstance(el, SorterStmt):
            if el.selector == "internal":
                lines.append(f"sorter internal {el.port.name} {_routes(el.routes)}")
            else:
                lines.append(f"sorter external {_routes(el.routes)}")
        elif isinstance(el, ExchangeStmt):
            lines.append(f"exchange {_routes(el.routes)}")
        else:
            raise TypeError(f"unknown element statement {el!r}")
    for m in tree.measures:
        bins = " ".join(
            f"bin {b.label.name} = " + " ".join(_atom(a) for a in b.atoms)
            for b in m.bins
        )
        lines.append(f"measure {m.party} {m.kind} {bins}")
    return "\n".join(lines) + "\n"


def _atom(a) -> str:
    if a.internal is not None:
        return f"{a.internal.name}:{a.external.name}"
    return a.external.name
