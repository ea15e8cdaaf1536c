"""Recursive-descent parser producing a validated circuit tree.

Grammar (one token of lookahead, statements in any order):

    program    := statement* END
    statement  := "internal" label+
                | "external" label+
                | "statistics" name
                | "particle" label label
                | ("hbs" | "bs") label label label label
                | "phase" label (NUMBER | PARAM)
                | "sorter" "internal" label route+
                | "sorter" "external" route+
                | "exchange" route+
                | "measure" name ("internal" | "external") bin+
    route      := label "->" label
    bin        := "bin" label "=" atom+
    atom       := label | label ":" label

A bare atom names an external port and covers every internal label at
that port; the two-part form picks one internal:external mode. Tree
equality ignores source positions, so a pretty-printed and re-parsed
tree compares equal to the original.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..algebra import Statistics
from .lexer import KEYWORDS, Token, tokenize

STATISTICS_NAMES = tuple(s.value for s in Statistics)
PARTIES = ("A", "B")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


class SemanticError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


def _pos(default=0):
    return field(default=default, compare=False, repr=False)


@dataclass(frozen=True)
class LabelRef:
    name: str
    line: int = _pos()
    col: int = _pos()


@dataclass(frozen=True)
class PhaseArg:
    """Literal radians or a `$name` parameter (``param`` holds the bare name), bound at execute."""

    value: float | None = None
    param: str | None = None


@dataclass(frozen=True)
class Route:
    src: LabelRef
    dst: LabelRef


@dataclass(frozen=True)
class ParticleDecl:
    internal: LabelRef
    external: LabelRef


@dataclass(frozen=True)
class SplitterStmt:
    kind: str  # "hbs" | "bs"
    in_a: LabelRef
    in_b: LabelRef
    out_t: LabelRef
    out_r: LabelRef


@dataclass(frozen=True)
class PhaseStmt:
    port: LabelRef
    arg: PhaseArg


@dataclass(frozen=True)
class SorterStmt:
    selector: str  # "internal" | "external"
    port: LabelRef | None
    routes: tuple[Route, ...]


@dataclass(frozen=True)
class ExchangeStmt:
    routes: tuple[Route, ...]


@dataclass(frozen=True)
class ModeAtom:
    internal: LabelRef | None
    external: LabelRef


@dataclass(frozen=True)
class BinDecl:
    label: LabelRef
    atoms: tuple[ModeAtom, ...]


@dataclass(frozen=True)
class MeasureStmt:
    party: str
    kind: str  # "internal" | "external"
    bins: tuple[BinDecl, ...]


@dataclass(frozen=True)
class CircuitSpecTree:
    internals: tuple[LabelRef, ...]
    externals: tuple[LabelRef, ...]
    statistics: str
    particles: tuple[ParticleDecl, ...]
    elements: tuple
    measures: tuple[MeasureStmt, ...]


_STATEMENT_HEADS = KEYWORDS - {"bin"}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def advance(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "end":
            self.i += 1
        return t

    def fail(self, message: str):
        t = self.peek()
        raise ParseError(message, t.line, t.col)

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            found = repr(t.text) if t.text else "end of input"
            self.fail(f"expected {want}, found {found}")
        return self.advance()

    def label(self) -> LabelRef:
        t = self.toks[self.i]
        if t.kind != "identifier":
            self.expect("identifier")
        self.i += 1
        return LabelRef(t.text, t.line, t.col)

    def labels(self) -> tuple[LabelRef, ...]:
        out = [self.label()]
        while self.peek().kind == "identifier":
            out.append(self.label())
        return tuple(out)

    def route(self) -> Route:
        src = self.label()
        self.expect("punctuation", "->")
        return Route(src, self.label())

    def routes(self) -> tuple[Route, ...]:
        out = [self.route()]
        while self.peek().kind == "identifier":
            out.append(self.route())
        return tuple(out)


def parse(tokens: list[Token]) -> CircuitSpecTree:
    p = _Parser(tokens)
    internals = externals = None
    statistics = None
    particles: list[ParticleDecl] = []
    elements: list = []
    measures: list[MeasureStmt] = []

    while p.peek().kind != "end":
        head = p.peek()
        if head.kind != "keyword" or head.text not in _STATEMENT_HEADS:
            p.fail(f"expected a statement keyword, found {head.text!r}")
        p.advance()
        if head.text in ("internal", "external"):
            decl = p.labels()
            if head.text == "internal":
                if internals is not None:
                    raise SemanticError("duplicate internal declaration", head.line, head.col)
                internals = decl
            else:
                if externals is not None:
                    raise SemanticError("duplicate external declaration", head.line, head.col)
                externals = decl
        elif head.text == "statistics":
            t = p.expect("identifier")
            if t.text not in STATISTICS_NAMES:
                raise SemanticError(
                    f"unknown statistics {t.text!r}, expected one of {', '.join(STATISTICS_NAMES)}",
                    t.line,
                    t.col,
                )
            if statistics is not None:
                raise SemanticError("duplicate statistics declaration", head.line, head.col)
            statistics = t.text
        elif head.text == "particle":
            particles.append(ParticleDecl(p.label(), p.label()))
        elif head.text in ("hbs", "bs"):
            ports = []
            while len(ports) < 4:
                t = p.peek()
                if t.kind == "end" or (t.kind == "keyword" and t.text in _STATEMENT_HEADS):
                    raise ParseError(
                        f"{head.text} takes four ports, in_a in_b out_t out_r;"
                        f" {len(ports)} given",
                        head.line,
                        head.col,
                    )
                ports.append(p.label())
            elements.append(SplitterStmt(head.text, *ports))
        elif head.text == "phase":
            port = p.label()
            t = p.peek()
            if t.kind == "number":
                p.advance()
                arg = PhaseArg(value=t.value)
            elif t.kind == "identifier" and t.text.startswith("$"):
                p.advance()
                arg = PhaseArg(param=t.text[1:])
            else:
                p.fail("expected a phase value or $parameter")
            elements.append(PhaseStmt(port, arg))
        elif head.text == "sorter":
            t = p.peek()
            if t.kind == "keyword" and t.text in ("internal", "external"):
                p.advance()
            else:
                p.fail("expected sorter selector internal or external")
            if t.text == "internal":
                elements.append(SorterStmt("internal", p.label(), p.routes()))
            else:
                elements.append(SorterStmt("external", None, p.routes()))
        elif head.text == "exchange":
            elements.append(ExchangeStmt(p.routes()))
        elif head.text == "measure":
            t = p.expect("identifier")
            if t.text not in PARTIES:
                raise SemanticError(
                    f"unknown party {t.text!r}, expected A or B", t.line, t.col
                )
            k = p.peek()
            if k.kind == "keyword" and k.text in ("internal", "external"):
                p.advance()
            else:
                p.fail("expected measurement kind internal or external")
            bins = [_parse_bin(p)]
            while p.peek().kind == "keyword" and p.peek().text == "bin":
                bins.append(_parse_bin(p))
            measures.append(MeasureStmt(t.text, k.text, tuple(bins)))

    end = p.peek()
    if statistics is None:
        raise SemanticError("missing statistics declaration", end.line, end.col)
    if internals is None:
        raise SemanticError("missing internal declaration", end.line, end.col)
    if externals is None:
        raise SemanticError("missing external declaration", end.line, end.col)
    if not particles:
        raise SemanticError("at least one particle is required", end.line, end.col)

    tree = CircuitSpecTree(
        internals, externals, statistics, tuple(particles), tuple(elements), tuple(measures)
    )
    _validate(tree)
    return tree


def parse_source(source: str) -> CircuitSpecTree:
    return parse(tokenize(source))


def _parse_bin(p: _Parser) -> BinDecl:
    p.expect("keyword", "bin")
    label = p.label()
    p.expect("punctuation", "=")
    atoms = [_parse_atom(p)]
    while p.peek().kind == "identifier":
        atoms.append(_parse_atom(p))
    return BinDecl(label, tuple(atoms))


def _parse_atom(p: _Parser) -> ModeAtom:
    first = p.label()
    if p.peek().kind == "punctuation" and p.peek().text == ":":
        p.advance()
        return ModeAtom(first, p.label())
    return ModeAtom(None, first)


def _check_unique(labels, what: str):
    seen = {}
    for ref in labels:
        if ref.name in seen:
            raise SemanticError(f"duplicate {what} label {ref.name!r}", ref.line, ref.col)
        seen[ref.name] = ref


def _validate(tree: CircuitSpecTree):
    _check_unique(tree.internals, "internal")
    _check_unique(tree.externals, "external")
    internals = {r.name for r in tree.internals}
    externals = {r.name for r in tree.externals}
    for ref in tree.externals:
        if ref.name in internals:
            raise SemanticError(
                f"label {ref.name!r} declared both internal and external", ref.line, ref.col
            )

    def need(ref: LabelRef, pool, what: str):
        if ref.name not in pool:
            raise SemanticError(f"undeclared {what} label {ref.name!r}", ref.line, ref.col)

    occupied = set()
    for part in tree.particles:
        need(part.internal, internals, "internal")
        need(part.external, externals, "external")
        mode = (part.internal.name, part.external.name)
        if tree.statistics == "fermion" and mode in occupied:
            raise SemanticError(
                f"fermionic particles cannot share mode {part.internal.name}:{part.external.name}"
                " (Pauli exclusion)",
                part.internal.line,
                part.internal.col,
            )
        occupied.add(mode)

    for el in tree.elements:
        if isinstance(el, SplitterStmt):
            for ref in (el.in_a, el.in_b, el.out_t, el.out_r):
                need(ref, externals, "external")
        elif isinstance(el, PhaseStmt):
            need(el.port, externals, "external")
        elif isinstance(el, SorterStmt):
            if el.selector == "internal":
                need(el.port, externals, "external")
                _check_unique([r.src for r in el.routes], "routed internal")
                _check_unique([r.dst for r in el.routes], "sorter target")
                for r in el.routes:
                    need(r.src, internals, "internal")
                    need(r.dst, externals, "external")
                missing = internals - {r.src.name for r in el.routes}
                if missing:
                    ref = el.routes[0].src
                    raise SemanticError(
                        f"sorter must route every internal label, missing {sorted(missing)}",
                        ref.line,
                        ref.col,
                    )
            else:
                _check_unique([r.src for r in el.routes], "routed external")
                for r in el.routes:
                    need(r.src, externals, "external")
                    need(r.dst, externals, "external")
                srcs = {r.src.name for r in el.routes}
                dsts = [r.dst.name for r in el.routes]
                if srcs != externals or sorted(dsts) != sorted(externals):
                    ref = el.routes[0].src
                    raise SemanticError(
                        "external sorter must permute the full external set",
                        ref.line,
                        ref.col,
                    )
        elif isinstance(el, ExchangeStmt):
            _check_unique([r.src for r in el.routes], "exchanged")
            dsts = [r.dst.name for r in el.routes]
            if len(set(dsts)) != len(dsts):
                ref = el.routes[0].dst
                raise SemanticError("exchange targets must be distinct", ref.line, ref.col)
            for r in el.routes:
                need(r.src, externals, "external")
                need(r.dst, externals, "external")

    seen_parties = {}
    claimed: dict[tuple, tuple] = {}
    for m in tree.measures:
        anchor = m.bins[0].label
        if m.party in seen_parties:
            raise SemanticError(
                f"duplicate measure for party {m.party}", anchor.line, anchor.col
            )
        seen_parties[m.party] = m
        _check_unique([b.label for b in m.bins], "bin")
        for b in m.bins:
            for atom in b.atoms:
                need(atom.external, externals, "external")
                if atom.internal is not None:
                    need(atom.internal, internals, "internal")
                    covered = [(atom.internal.name, atom.external.name)]
                else:
                    covered = [(i, atom.external.name) for i in internals]
                for mode in covered:
                    if mode in claimed:
                        raise SemanticError(
                            f"overlapping measurement bins: mode {mode[0]}:{mode[1]}"
                            f" already claimed by bin {claimed[mode][0]!r}",
                            atom.external.line,
                            atom.external.col,
                        )
                    claimed[mode] = (b.label.name, m.party)
