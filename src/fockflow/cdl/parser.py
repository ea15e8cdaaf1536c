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

from .._record import Record, _store
from ..algebra import Statistics
from .lexer import KEYWORDS, CdlError, Token, tokenize

STATISTICS_NAMES = tuple(s.value for s in Statistics)
PARTIES = ("A", "B")


class ParseError(CdlError):
    """Tokens the grammar does not accept."""


class SemanticError(CdlError):
    """A well-formed statement that breaks a declaration rule."""


class LabelRef(Record):
    """A label as written; ``line`` and ``col`` place it and take no part in equality."""

    _fields = ("name",)

    def __init__(self, name: str, line: int = 0, col: int = 0) -> None:
        _store(self, "name", name)
        _store(self, "line", line)
        _store(self, "col", col)


class PhaseArg(Record):
    """Literal radians or a `$name` parameter (``param`` holds the bare name), bound at execute."""

    _fields = ("value", "param")

    def __init__(self, value: float | None = None, param: str | None = None) -> None:
        _store(self, "value", value)
        _store(self, "param", param)


class Route(Record):
    _fields = ("src", "dst")


class ParticleDecl(Record):
    _fields = ("internal", "external")


class SplitterStmt(Record):
    _fields = ("kind", "in_a", "in_b", "out_t", "out_r")  # kind: "hbs" | "bs"


class PhaseStmt(Record):
    _fields = ("port", "arg")


class SorterStmt(Record):
    _fields = ("selector", "port", "routes")  # selector: "internal" | "external"


class ExchangeStmt(Record):
    _fields = ("routes",)


class ModeAtom(Record):
    _fields = ("internal", "external")


class BinDecl(Record):
    _fields = ("label", "atoms")


class MeasureStmt(Record):
    _fields = ("party", "kind", "bins")  # kind: "internal" | "external"


class CircuitSpecTree(Record):
    _fields = ("internals", "externals", "statistics", "particles", "elements", "measures")


_STATEMENT_HEADS = KEYWORDS - {"bin"}


def _unexpected(t: Token, want: str) -> ParseError:
    found = repr(t.text) if t.text else "end of input"
    return ParseError(f"expected {want}, found {found}", t.line, t.col)


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
            raise _unexpected(t, text if text is not None else kind)
        return self.advance()

    def label(self) -> LabelRef:
        t = self.toks[self.i]
        if t.kind != "identifier":
            raise _unexpected(t, "identifier")
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
    p, i = _Parser(tokens), 0
    internals = externals = None
    statistics = None
    particles: list[ParticleDecl] = []
    elements: list = []
    measures: list[MeasureStmt] = []

    while True:
        head = tokens[i]
        text = head.text
        if head.kind != "keyword" or text not in _STATEMENT_HEADS:
            if head.kind == "end":
                break
            raise ParseError(f"expected a statement keyword, found {text!r}", head.line, head.col)
        # phase and bs/hbs, nearly every mesh statement, read their operands by index
        if text == "phase":
            port = tokens[i + 1]
            if port.kind != "identifier":
                raise _unexpected(port, "identifier")
            t = tokens[i + 2]
            if t.kind == "number":
                arg = PhaseArg(t.value)
            elif t.kind == "identifier" and t.text.startswith("$"):
                arg = PhaseArg(None, t.text[1:])
            else:
                raise ParseError("expected a phase value or $parameter", t.line, t.col)
            elements.append(PhaseStmt(LabelRef(port.text, port.line, port.col), arg))
            i += 3
            continue
        if text == "bs" or text == "hbs":
            ports = tokens[i + 1 : i + 5]
            for n, t in enumerate(ports):
                if t.kind != "identifier":
                    if t.kind == "end" or (t.kind == "keyword" and t.text in _STATEMENT_HEADS):
                        short = f"{text} takes four ports, in_a in_b out_t out_r; {n} given"
                        raise ParseError(short, head.line, head.col)
                    raise _unexpected(t, "identifier")
            elements.append(SplitterStmt(text, *[LabelRef(t.text, t.line, t.col) for t in ports]))
            i += 5
            continue
        p.i = i + 1
        if text in ("internal", "external"):
            decl = p.labels()
            if text == "internal":
                if internals is not None:
                    raise SemanticError("duplicate internal declaration", head.line, head.col)
                internals = decl
            else:
                if externals is not None:
                    raise SemanticError("duplicate external declaration", head.line, head.col)
                externals = decl
        elif text == "statistics":
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
        elif text == "particle":
            particles.append(ParticleDecl(p.label(), p.label()))
        elif text == "sorter":
            t = p.peek()
            if t.kind == "keyword" and t.text in ("internal", "external"):
                p.advance()
            else:
                p.fail("expected sorter selector internal or external")
            if t.text == "internal":
                elements.append(SorterStmt("internal", p.label(), p.routes()))
            else:
                elements.append(SorterStmt("external", None, p.routes()))
        elif text == "exchange":
            elements.append(ExchangeStmt(p.routes()))
        elif text == "measure":
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
        i = p.i

    end = head
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
        if isinstance(el, PhaseStmt):
            need(el.port, externals, "external")
        elif isinstance(el, SplitterStmt):
            for ref in (el.in_a, el.in_b, el.out_t, el.out_r):
                need(ref, externals, "external")
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
