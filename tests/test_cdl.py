"""Unit tests for the circuit description language."""

import contextlib
import io
import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fockflow import cli
from fockflow.algebra import (
    Statistics,
    detector_distribution,
    norm_squared,
    scale,
)
from fockflow.analysis import MeasurementPartition, completeness
from fockflow.cdl import (
    CircuitSpecTree,
    LabelRef,
    LexError,
    ParseError,
    PhaseArg,
    PhaseStmt,
    SemanticError,
    compile_circuit,
    execute,
    parse,
    parse_source,
    rebin,
    tokenize,
)
from fockflow.cdl.compiler import BOUND_STAGE_CAP
from fockflow.elements import compose
from fockflow.experiments import TABLE_KINDS
import circuits
from printer import pretty_print
from reference import apply_creation, dense, dense_product, reference_tokenize, vacuum
from test_elements import mesh_source

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = ROOT / "src" / "fockflow" / "examples"

MINIMAL = """\
internal down up
external a b
statistics boson
particle down a
"""


# valid tokens with their folded values, and blanks that may separate them
LEX_TOKENS = (
    ("phase", None),
    ("bin", None),
    ("D", None),
    ("pin", None),
    ("up_2", None),
    ("$phiL", None),
    ("->", None),
    ("=", None),
    (":", None),
    ("0.5", 0.5),
    (".5", 0.5),
    ("1e-3", 1e-3),
    ("pi", math.pi),
    ("pi/4", math.pi / 4),
    ("-3*pi/2", -3 * math.pi / 2),
    ("2*-pi", -2 * math.pi),
    ("--1", 1.0),
)
LEX_BLANKS = (
    " ",
    "  ",
    "\t",
    "\n",
    "\r\n",
    "\n\n",
    " # note -> 1\n",
    "#\n",
    "\t\r\n ",
    # blanks that end no line: only "\n" does
    "\r",
    "\x0b",
    "\x0c",
    "\x1c",
    "\x85",
    "\u2028",
    "\u3000",
)
# pieces of valid and invalid sources, compared against the reference tokenizer
LEX_PIECES = (
    *LEX_BLANKS,
    "# note",
    "#",
    "$",
    "$phi",
    "$9",
    "->",
    "-->",
    "-",
    "--",
    "=",
    ":",
    "*",
    "/",
    ".",
    "0.5",
    ".5",
    "12",
    "1e",
    "1e-3",
    "1e999",
    "1e308*10",
    # literal shapes that ``float`` reads, and chains that ``_constant`` folds
    "6.123233995736766e-17",
    "1e-05",
    "5.",
    "-0.0",
    "-.5",
    "1E+5",
    "0.5*",
    "2/",
    "1e999*0",
    "pi",
    "pin",
    "pi2",
    "pi_",
    "pi\u00e9",
    "pi/0",
    "pi/-0",
    "2*-pi",
    "-3*pi/2",
    "phase",
    "internal",
    "bin",
    "D",
    "up_2",
    "\u00b2",
    "\u0663",
    "\u2460",
    "\U0001d7d9",
    "\u00e9",
    "^",
)


def read(name: str) -> str:
    return (EXAMPLES / name).read_text()


class TestLexer:
    def test_kinds_and_positions(self):
        toks = tokenize("phase D 0.5")
        assert [(t.kind, t.text, t.line, t.col) for t in toks] == [
            ("keyword", "phase", 1, 1),
            ("identifier", "D", 1, 7),
            ("number", "0.5", 1, 9),
            ("end", "", 1, 12),
        ]
        assert toks[2].value == 0.5

    def test_comment_only_source(self):
        toks = tokenize("# comment\n")
        assert [t.kind for t in toks] == ["end"]

    @pytest.mark.parametrize(
        "text,value",
        [
            ("pi", math.pi),
            ("pi/4", math.pi / 4),
            ("-3*pi/2", -3 * math.pi / 2),
            ("2*pi", 2 * math.pi),
            ("2*-pi", -2 * math.pi),
            ("1e-3", 1e-3),
            (".5", 0.5),
            ("-0.25", -0.25),
        ],
    )
    def test_constant_folding(self, text, value):
        (tok, end) = tokenize(text)
        assert tok.kind == "number"
        assert tok.value == pytest.approx(value, abs=0)

    def test_pi_is_reserved_but_prefixes_are_not(self):
        assert tokenize("pi")[0].kind == "number"
        assert tokenize("pin")[0] .kind == "identifier"

    def test_parameter_token(self):
        tok = tokenize("$phiL")[0]
        assert (tok.kind, tok.text) == ("identifier", "$phiL")

    def test_illegal_character_position(self):
        with pytest.raises(LexError) as e:
            tokenize("phase D ^")
        assert (e.value.line, e.value.col) == (1, 9)

    def test_bare_dollar(self):
        with pytest.raises(LexError):
            tokenize("$ D")

    def test_division_by_zero(self):
        with pytest.raises(LexError, match="division by zero"):
            tokenize("pi/0")

    def test_overflowing_literal(self):
        with pytest.raises(LexError, match="finite"):
            tokenize("1e999")

    def test_positions_track_lines(self):
        toks = tokenize("internal down\n  phase D 1\n")
        phase = next(t for t in toks if t.text == "phase")
        assert (phase.line, phase.col) == (2, 3)

    @pytest.mark.parametrize(
        "source,message,col",
        [
            ("phase D ²", "expected a number", 9),  # isdigit() but not a decimal digit
            ("a -->b", "expected a number", 3),  # "->" is not split out of "-->"
            ("2*-x", "expected a number, found 'x'", 3),  # at the term, before its minus
            ("-pi/-0", "division by zero", 1),
        ],
    )
    def test_number_error_positions(self, source, message, col):
        with pytest.raises(LexError, match=message) as e:
            tokenize(source)
        assert (e.value.line, e.value.col) == (1, col)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(st.tuples(st.sampled_from(LEX_BLANKS), st.sampled_from(LEX_TOKENS))),
        st.sampled_from(("", "# no newline", *LEX_BLANKS)),
    )
    def test_positions_and_values_of_generated_sources(self, pieces, tail):
        source, expected = "", []
        for blank, (text, value) in pieces:
            source += blank
            expected.append((len(source), text, value))
            source += text
        source += tail
        line_starts = [0] + [i + 1 for i, c in enumerate(source) if c == "\n"]
        toks = tokenize(source)
        got = [(line_starts[t.line - 1] + t.col - 1, t.text, t.value) for t in toks]
        assert got == [*expected, (len(source), "", None)]

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(LEX_PIECES), max_size=12).map("".join))
    def test_matches_the_reference_tokenizer(self, source):
        def scan(lex):
            try:
                return [(t.kind, t.text, t.line, t.col, repr(t.value)) for t in lex(source)]
            except LexError as e:
                return (str(e), e.line, e.col)

        assert scan(tokenize) == scan(reference_tokenize)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_the_reference_tokenizer_on_meshes_and_bundled_files(self, n):
        sources = [mesh_source(n, random.Random(n + k)) for k in range(3)]
        sources += [p.read_text() for p in sorted(EXAMPLES.glob("*.cdl"))]
        for source in sources:
            got = [(t.kind, t.text, t.line, t.col, repr(t.value)) for t in tokenize(source)]
            assert got == [(t.kind, t.text, t.line, t.col, repr(t.value)) for t in reference_tokenize(source)]


class TestParser:
    def test_minimal_tree(self):
        t = parse_source(MINIMAL)
        assert [r.name for r in t.internals] == ["down", "up"]
        assert [r.name for r in t.externals] == ["a", "b"]
        assert t.statistics == "boson"
        assert len(t.particles) == 1 and t.elements == () and t.measures == ()

    def test_positions_do_not_affect_equality(self):
        assert LabelRef("x", 1, 1) == LabelRef("x", 9, 9)

    def test_bundled_interferometer_counts(self):
        t = parse_source(read("hh_fermion.cdl"))
        assert len(t.particles) == 2
        assert len(t.elements) == 8
        assert len(t.measures) == 2

    def test_bundled_swap_counts(self):
        t = parse_source(read("swap.cdl"))
        assert len(t.particles) == 2
        assert len(t.elements) == 8
        assert {m.party for m in t.measures} == {"A", "B"}

    def test_missing_statistics(self):
        with pytest.raises(SemanticError, match="missing statistics declaration"):
            parse_source("internal down\nexternal a\nparticle down a\n")

    def test_empty_source(self):
        with pytest.raises(SemanticError, match="missing statistics declaration"):
            parse_source("")

    def test_undeclared_label_position(self):
        src = "internal down\nexternal a\nstatistics boson\nparticle down z\n"
        with pytest.raises(SemanticError, match="undeclared external label 'z'") as e:
            parse_source(src)
        assert (e.value.line, e.value.col) == (4, 15)

    def test_fermion_duplicate_mode(self):
        src = MINIMAL.replace("boson", "fermion") + "particle down a\n"
        with pytest.raises(SemanticError, match="Pauli exclusion"):
            parse_source(src)

    def test_boson_duplicate_mode_allowed(self):
        t = parse_source(MINIMAL + "particle down a\n")
        assert len(t.particles) == 2

    def test_duplicate_declaration(self):
        with pytest.raises(SemanticError, match="duplicate internal"):
            parse_source(MINIMAL + "internal q\n")

    def test_unknown_statistics_word(self):
        with pytest.raises(SemanticError, match="unknown statistics"):
            parse_source(MINIMAL.replace("boson", "anyonic"))

    def test_unknown_party(self):
        with pytest.raises(SemanticError, match="unknown party"):
            parse_source(MINIMAL + "measure C external bin a = a\n")

    def test_route_requires_arrow(self):
        with pytest.raises(ParseError) as e:
            parse_source(MINIMAL + "exchange a b\n")
        assert (e.value.line, e.value.col) == (5, 12)

    def test_keyword_cannot_be_a_label(self):
        with pytest.raises(ParseError):
            parse_source("internal down bin\nexternal a\nstatistics boson\nparticle down a\n")

    def test_overlapping_bins(self):
        src = MINIMAL + "measure A external bin x = a bin y = a\n"
        with pytest.raises(SemanticError, match="overlapping measurement bins"):
            parse_source(src)

    def test_cross_party_overlap(self):
        src = MINIMAL + "measure A external bin x = a\nmeasure B internal bin d = down:a\n"
        with pytest.raises(SemanticError, match="overlapping measurement bins"):
            parse_source(src)

    def test_shared_internal_external_name(self):
        with pytest.raises(SemanticError, match="both internal and external"):
            parse_source("internal q\nexternal q\nstatistics boson\nparticle q q\n")

    def test_incomplete_internal_sorter(self):
        with pytest.raises(SemanticError, match="route every internal"):
            parse_source(MINIMAL + "sorter internal a down->b\n")

    def test_external_sorter_must_permute(self):
        with pytest.raises(SemanticError, match="permute the full external set"):
            parse_source(MINIMAL + "sorter external a->b b->b\n")

    def test_atom_missing_external_after_colon(self):
        with pytest.raises(ParseError):
            parse_source(MINIMAL + "measure A internal bin d = down:\n")

    @pytest.mark.parametrize("kind", ["bs", "hbs"])
    @pytest.mark.parametrize("rest", ["bs a b a b\n", "measure A external bin x = a\n", ""])
    def test_short_splitter_is_reported_at_its_keyword(self, kind, rest):
        # a statement keyword or the end of input cuts the port list short
        with pytest.raises(ParseError) as e:
            parse_source(MINIMAL + f"{kind} a b\n" + rest)
        assert str(e.value) == (
            f"{kind} takes four ports, in_a in_b out_t out_r; 2 given (line 5, col 1)"
        )

    def test_splitter_with_no_ports_at_the_end(self):
        with pytest.raises(ParseError, match=r"bs takes four ports, .*; 0 given \(line 5, col 1\)"):
            parse_source(MINIMAL + "bs")

    def test_bad_token_in_a_splitter_keeps_its_error(self):
        with pytest.raises(ParseError) as e:
            parse_source(MINIMAL + "bs a -> b c\n")
        assert str(e.value) == "expected identifier, found '->' (line 5, col 6)"


# Every bin of the four interferometer files, for each party and kind,
# written out by hand: a slot is (external index, internal index) over the
# externals L D R U and the internals down up (H V in swap.cdl).
HH_BINS = {
    ("A", "external"): (("D", {(1, 0), (1, 1)}), ("L", {(0, 0), (0, 1)})),
    ("A", "internal"): (("down", {(1, 0), (0, 0)}), ("up", {(1, 1), (0, 1)})),
    ("B", "external"): (("R", {(2, 0), (2, 1)}), ("U", {(3, 0), (3, 1)})),
    ("B", "internal"): (("down", {(2, 0), (3, 0)}), ("up", {(2, 1), (3, 1)})),
}
SWAP_BINS = {
    **HH_BINS,
    ("A", "internal"): (("H", {(1, 0), (0, 0)}), ("V", {(1, 1), (0, 1)})),
    ("B", "internal"): (("H", {(2, 0), (3, 0)}), ("V", {(2, 1), (3, 1)})),
}
HARDCODED_BINS = {
    "hh_boson.cdl": HH_BINS,
    "hh_fermion.cdl": HH_BINS,
    "hh_distinguishable.cdl": HH_BINS,
    "swap.cdl": SWAP_BINS,
}


def hardcoded_partition(name, party, kind):
    bins = HARDCODED_BINS[name][party, kind]
    return MeasurementPartition(party, kind, tuple((lab, frozenset(s)) for lab, s in bins))


class TestCompiler:
    PARAMS = {"phiL": 0.3, "phiD": 1.1, "phiR": 2.0, "phiU": 0.7}

    def test_empty_element_list_returns_initial(self):
        c = compile_circuit(parse_source(MINIMAL))
        assert execute(c) is c.initial

    def test_unbound_parameter_defaults_to_zero(self):
        c = compile_circuit(parse_source(MINIMAL + "phase a $theta\n"))
        assert execute(c).terms == c.initial.terms

    def test_bosons_sharing_a_mode_start_normalized(self):
        c = compile_circuit(parse_source(MINIMAL + "particle down a\nbs a b a b\n"))
        assert norm_squared(c.initial) == pytest.approx(1.0, abs=1e-15)
        state = execute(c)
        assert norm_squared(state) == pytest.approx(1.0, abs=1e-12)
        split = c.basis.mode("down", "a"), c.basis.mode("down", "b")
        pair = next(m for m in state.terms if [e for e, _ in m.entries] == list(split))
        probs = detector_distribution(state)[0]
        assert probs.get(pair.pattern, 0.0) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize(
        "name", ["hh_boson.cdl", "hh_fermion.cdl", "hh_distinguishable.cdl", "swap.cdl"]
    )
    def test_bound_phases_equal_literal_phases(self, name):
        # execute's binding must build exactly the circuit a literal file compiles
        # to, whether a stage is new, cached, shared by -0.0 or built after a clear
        tree = parse_source(read(name))
        compiled = compile_circuit(tree)
        names = [el.arg.param for el in tree.elements if isinstance(el, PhaseStmt)]
        assert sorted(names) == sorted(self.PARAMS)

        def literal(params):
            elements = tuple(
                PhaseStmt(el.port, PhaseArg(value=params[el.arg.param]))
                if isinstance(el, PhaseStmt)
                else el
                for el in tree.elements
            )
            literal_tree = CircuitSpecTree(
                tree.internals, tree.externals, tree.statistics, tree.particles, elements, tree.measures
            )
            return execute(compile_circuit(literal_tree)).terms

        grid = [
            dict(zip(self.PARAMS, values))
            for values in itertools.product((0.0, 0.9, -2 * math.pi / 3), repeat=4)
        ]
        want = [literal(params) for params in grid]
        for params, terms in zip(grid, want):
            assert execute(compiled, params).terms == terms, params
        rng = random.Random(11)
        order = list(range(len(grid)))
        rng.shuffle(order)
        for k in order:  # a second pass: every stage is a cache hit
            assert execute(compiled, grid[k]).terms == want[k], grid[k]
        for values in itertools.product((-0.0, 0.9), repeat=4):
            params = dict(zip(self.PARAMS, values))
            assert execute(compiled, params).terms == literal(params), params
        for _ in range(1250):  # 5,000 distinct phases overflow the cache many times
            params = {p: rng.uniform(-math.pi, math.pi) for p in self.PARAMS}
            assert execute(compiled, params).terms == literal(params), params
            assert compiled.bind.cache_info().currsize <= BOUND_STAGE_CAP

    @pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
    def test_non_finite_bound_phase_raises_and_caches_nothing(self, phase):
        # the miss raises before the full cache evicts an entry or stores the value
        compiled = compile_circuit(parse_source(read("hh_boson.cdl")))
        for k in range(BOUND_STAGE_CAP - compiled.bind.cache_info().currsize):
            execute(compiled, {"phiL": 0.001 * (k + 1)})
        assert compiled.bind.cache_info().currsize == BOUND_STAGE_CAP
        with pytest.raises(ValueError, match="phase at port 'L' must be finite"):
            execute(compiled, {"phiL": phase})
        before = compiled.bind.cache_info()
        execute(compiled)  # (L, 0.0) is the least recently used entry
        after = compiled.bind.cache_info()
        assert after.currsize == BOUND_STAGE_CAP
        assert (after.hits - before.hits, after.misses - before.misses) == (4, 0)

    def test_runs_share_output_monomials(self):
        compiled = compile_circuit(parse_source(read("hh_boson.cdl")))
        first = execute(compiled, self.PARAMS)
        second = execute(compiled, self.PARAMS)
        assert len(first.terms) == len(second.terms) > 1
        assert all(a is b for a, b in zip(first.terms, second.terms))
        assert all(hash(m) == hash((m.entries,)) for m in first.terms)

    def test_circuits_on_equal_label_sets_share_basis_and_monomials(self):
        # a second circuit on the same ports builds no monomial the first built
        first = compile_circuit(parse_source(read("hh_boson.cdl")))
        second = compile_circuit(parse_source(read("hh_boson.cdl")))
        assert second is not first and second.basis is first.basis
        a, b = execute(first, self.PARAMS), execute(second, self.PARAMS)
        assert len(a.terms) > 1 and all(m is n for m, n in zip(a.terms, b.terms))
        other = compile_circuit(parse_source(read("hh_distinguishable.cdl")))
        assert other.basis is not first.basis and other.basis.species == (1, 2)

    def test_partitions_match_hardcoded(self):
        for name in HARDCODED_BINS:
            c = compile_circuit(parse_source(read(name)))
            kinds = {"A": "internal" if name == "swap.cdl" else "external", "B": "external"}
            for party, kind in kinds.items():
                assert c.partitions[party] == hardcoded_partition(name, party, kind), name

    @pytest.mark.parametrize(
        "name", ["hh_fermion.cdl", "hh_distinguishable.cdl", "swap.cdl", "hh_boson.cdl"]
    )
    def test_rebin_matches_hardcoded_partitions(self, name):
        c = compile_circuit(parse_source(read(name)))
        for party in "AB":
            for kind in ("external", "internal"):
                assert rebin(c, party, kind) == hardcoded_partition(name, party, kind)

    @pytest.mark.parametrize(
        "name, party, kind, measured",
        [("hh_fermion.cdl", "C", "external", "A, B"), ("cascade2.cdl", "A", "internal", "no party")],
    )
    def test_rebin_rejects_a_party_the_file_does_not_measure(self, name, party, kind, measured):
        c = compile_circuit(parse_source(read(name)))
        want = f"party {party!r} is not measured (the file measures {measured})"
        with pytest.raises(ValueError) as err:
            rebin(c, party, kind)
        assert str(err.value) == want

    def test_rebin_orders_ports_by_first_appearance_and_spins_by_declaration(self):
        src = MINIMAL.replace("external a b", "external a b c")
        c = compile_circuit(parse_source(src + "measure A external bin x = b bin y = up:c a\n"))
        by_port = rebin(c, "A", "external")
        assert by_port.labels() == ("b", "c", "a")
        # slots are (external index, internal index): up:c is (2, 1)
        assert by_port.bins[1][1] == {(2, 1)}
        assert by_port.bins[0][1] == {(1, 0), (1, 1)}
        by_spin = rebin(c, "A", "internal")
        assert by_spin.labels() == ("down", "up")
        assert by_spin.bins == (
            ("down", frozenset({(0, 0), (1, 0)})),
            ("up", frozenset({(0, 1), (1, 1), (2, 1)})),
        )
        assert by_spin.slots.keys() == c.partitions["A"].slots.keys()
        with pytest.raises(ValueError):
            rebin(c, "A", "charge")

    def test_distinguishable_species_follow_declaration_order(self):
        tree = parse_source(read("hh_distinguishable.cdl"))
        c = compile_circuit(tree)
        assert c.basis.species == (1, 2)
        # the sole monomial of the input state tags the right-mover species 1
        (mono,) = c.initial.terms
        by_port = {m.external.name: m.species for m, _ in mono.entries}
        assert by_port == {"R": 1, "L": 2}

    def test_partitions_do_not_depend_on_statistics(self):
        # detectors see slots, never species: the three hh files measure alike
        boson, fermion, distinguishable = (
            compile_circuit(parse_source(read(f"hh_{stats}.cdl"))).partitions
            for stats in ("boson", "fermion", "distinguishable")
        )
        assert boson == fermion == distinguishable
        assert boson["A"].bins[0] == ("D", frozenset({(1, 0), (1, 1)}))

    def test_cascade_compiles_to_permutations(self):
        for name in ("cascade2.cdl", "cascade3.cdl"):
            c = compile_circuit(parse_source(read(name)))
            st = execute(c)
            assert norm_squared(st) == pytest.approx(1.0, abs=1e-12)
            assert len(st.terms) == 1  # a permutation keeps a single monomial


class TestPrinter:
    @pytest.mark.parametrize(
        "name",
        [
            "hh_fermion.cdl",
            "hh_boson.cdl",
            "hh_distinguishable.cdl",
            "swap.cdl",
            "cascade2.cdl",
            "cascade3.cdl",
            "wiring.cdl",
        ],
    )
    def test_round_trip_bundled(self, name):
        t = parse_source(read(name))
        assert parse(tokenize(pretty_print(t))) == t

    def test_numbers_survive_reprint_exactly(self):
        t = parse_source(MINIMAL + "phase a 0.1\nphase b pi/4\n")
        t2 = parse(tokenize(pretty_print(t)))
        assert [e.arg.value for e in t2.elements] == [0.1, math.pi / 4]

    def test_comments_are_dropped(self):
        commented = "# top\n" + MINIMAL + "# tail\n"
        plain = MINIMAL
        a = pretty_print(parse_source(commented))
        b = pretty_print(parse_source(plain))
        assert a == b


class TestMutations:
    def splice(self, src, tok, inject):
        starts = [0]
        for i, ch in enumerate(src):
            if ch == "\n":
                starts.append(i + 1)
        off = starts[tok.line - 1] + tok.col - 1
        assert src[off : off + len(tok.text)] == tok.text
        return src[:off] + inject + src[off + len(tok.text) :]

    def test_colon_to_arrow_is_caught_at_position(self):
        src = read("swap.cdl")
        tok = next(t for t in tokenize(src) if t.text == ":")
        mutated = self.splice(src, tok, "->")
        with pytest.raises((ParseError, SemanticError)) as e:
            parse_source(mutated)
        assert (e.value.line, e.value.col) == (tok.line, tok.col)

    def test_arrow_to_equals_is_caught_at_position(self):
        src = read("cascade2.cdl")
        tok = next(t for t in tokenize(src) if t.text == "->")
        mutated = self.splice(src, tok, "=")
        with pytest.raises(ParseError) as e:
            parse_source(mutated)
        assert (e.value.line, e.value.col) == (tok.line, tok.col)

    def test_keyword_corruption_is_caught_at_position(self):
        src = read("hh_fermion.cdl")
        tok = next(t for t in tokenize(src) if t.text == "statistics")
        mutated = self.splice(src, tok, "->")
        with pytest.raises(ParseError) as e:
            parse_source(mutated)
        assert (e.value.line, e.value.col) == (tok.line, tok.col)


INTERNAL_NAMES = ("down", "up", "mid")
EXTERNAL_NAMES = ("L", "D", "R", "U")
STANDARD_PARAMS = ("$phiL", "$phiD", "$phiR", "$phiU")
ELEMENT_KINDS = ("bs", "hbs", "phase", "sorter internal", "sorter external", "exchange")


@st.composite
def cdl_sources(draw):
    """A circuit file that parses: 1-4 particles, any statistics, random elements.

    Every element is well formed except that ``hbs`` is also drawn over
    one or three internal labels, which only the compiler rejects.
    """
    internals = INTERNAL_NAMES[: draw(st.sampled_from((1, 2, 2, 2, 3)))]
    externals = EXTERNAL_NAMES[: draw(st.integers(2, 4))]
    statistics = draw(st.sampled_from(("boson", "fermion", "distinguishable")))
    modes = [(i, e) for e in externals for i in internals]
    fermion = statistics == "fermion"
    count = draw(st.integers(1, min(4, len(modes)) if fermion else 4))
    particles = draw(
        st.lists(st.sampled_from(modes), min_size=count, max_size=count, unique=fermion)
    )
    lines = [
        "internal " + " ".join(internals),
        "external " + " ".join(externals),
        f"statistics {statistics}",
        *(f"particle {i} {e}" for i, e in particles),
    ]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(ELEMENT_KINDS))
        order = draw(st.permutations(externals))
        if kind in ("bs", "hbs"):
            ins = order[:2]
            if len(order) == 4 and draw(st.booleans()):
                outs = order[2:]
            else:
                outs = draw(st.permutations(ins))
            lines.append(f"{kind} {' '.join(ins)} {' '.join(outs)}")
        elif kind == "phase":
            value = draw(
                st.sampled_from(STANDARD_PARAMS)
                | st.floats(-2 * math.pi, 2 * math.pi).map(repr)
            )
            lines.append(f"phase {order[0]} {value}")
        elif kind == "sorter internal" and len(externals) >= len(internals):
            port = draw(st.sampled_from(externals))
            routes = " ".join(f"{i}->{e}" for i, e in zip(internals, order))
            lines.append(f"sorter internal {port} {routes}")
        elif kind == "sorter external":
            routes = " ".join(f"{a}->{b}" for a, b in zip(externals, order))
            lines.append(f"sorter external {routes}")
        elif kind == "exchange":
            k = draw(st.integers(1, len(externals)))
            sources = draw(st.permutations(externals))[:k]
            lines.append("exchange " + " ".join(f"{a}->{b}" for a, b in zip(sources, order[:k])))
    # the first port is Alice's, the last Bob's, the others go to either
    # or to no detector; now and then one party's measure line is left
    # out, which the CLI must reject with exit 2
    middle = len(externals) - 2
    owner = ["A", *draw(st.lists(st.sampled_from("AB-"), min_size=middle, max_size=middle)), "B"]
    unmeasured = draw(st.sampled_from("--------AB"))
    for party in "AB":
        if party == unmeasured:
            continue
        ports = [e for e, o in zip(externals, owner) if o == party]
        if draw(st.booleans()):
            bins = " ".join(f"bin {e} = {e}" for e in ports)
            lines.append(f"measure {party} external {bins}")
        else:
            bins = " ".join(
                f"bin {i} = " + " ".join(f"{i}:{e}" for e in ports) for i in internals
            )
            lines.append(f"measure {party} internal {bins}")
    return "\n".join(lines) + "\n"


@st.composite
def particle_files(draw):
    """Declarations only: 1-5 particles on 1-3 internals and 1-4 ports, any statistics.

    Fermions take distinct modes in any declaration order; bosons and
    distinguishable particles may repeat a mode.
    """
    internals = INTERNAL_NAMES[: draw(st.integers(1, 3))]
    externals = EXTERNAL_NAMES[: draw(st.integers(1, 4))]
    statistics = draw(st.sampled_from(("boson", "fermion", "distinguishable")))
    modes = [(i, e) for e in externals for i in internals]
    fermion = statistics == "fermion"
    count = draw(st.integers(1, min(5, len(modes)) if fermion else 5))
    particles = draw(
        st.lists(st.sampled_from(modes), min_size=count, max_size=count, unique=fermion)
    )
    return "\n".join(
        [
            "internal " + " ".join(internals),
            "external " + " ".join(externals),
            f"statistics {statistics}",
            *(f"particle {i} {e}" for i, e in particles),
        ]
    ) + "\n"


class TestInitialState:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(source=particle_files())
    @example(source="internal a\nexternal L R\nstatistics fermion\nparticle a R\nparticle a L\n")
    @example(
        source="internal a\nexternal L R\nstatistics boson\nparticle a R\nparticle a L\nparticle a R\n"
    )
    def test_initial_state_matches_the_reference_creation_chain(self, source):
        # the reference reorders Mode objects by insertion sort, the compiler
        # inserts basis indices; terms, their order and every bit must agree
        tree = parse_source(source)
        compiled = compile_circuit(tree)
        stats, basis = compiled.initial.statistics, compiled.basis
        want = vacuum(stats)
        for k in reversed(range(len(tree.particles))):
            p = tree.particles[k]
            sp = k + 1 if stats is Statistics.DISTINGUISHABLE else 0
            want = apply_creation(want, basis.mode(p.internal.name, p.external.name, species=sp))
        n2 = norm_squared(want)
        if n2 != 1.0:
            want = scale(want, n2**-0.5)
        got = [(m, repr(a)) for m, a in compiled.initial.terms.items()]
        assert got == [(m, repr(a)) for m, a in want.terms.items()]


class TestGeneratedCircuits:
    @settings(
        max_examples=120,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(source=cdl_sources())
    def test_round_trip_norm_completeness_and_exit_codes(self, tmp_path_factory, source):
        tree = parse_source(source)
        assert parse(tokenize(pretty_print(tree))) == tree

        try:
            compiled = compile_circuit(tree)
        except ValueError:
            compiled = None
        if compiled is not None:
            state = execute(compiled)
            assert norm_squared(state) == pytest.approx(1.0, abs=1e-9)
            probs = detector_distribution(state)[0]
            assert completeness(probs) == pytest.approx(1.0, abs=1e-9)

        path = tmp_path_factory.getbasetemp() / "generated.cdl"
        path.write_text(source)

        def main(*argv):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main([*argv])
            return code, err.getvalue()

        code, err = main("table", str(path))
        assert code in (0, 2), err
        measured = {m.party for m in tree.measures} == {"A", "B"}
        assert (code == 0) == (compiled is not None and measured), err

        # every other command on the file ends in a documented exit code,
        # with a message for each nonzero one
        others = [("chsh",), ("sweep", "--steps", "1"), ("check",)]
        others += [("table", "--kind", kind) for kind in TABLE_KINDS]
        for command, *flags in others:
            code, err = main(command, str(path), *flags)
            assert code in (0, 2, 3), (command, flags, err)
            assert code == 0 or err, (command, flags)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(source=cdl_sources(), phase=st.floats(-2 * math.pi, 2 * math.pi))
    def test_the_column_push_is_the_dense_product(self, source, phase):
        try:
            compiled = compile_circuit(parse_source(source))
        except ValueError:
            return
        stages = circuits.stages(compiled, dict.fromkeys((n for _, n, _ in compiled.params), phase))
        if stages:
            assert abs(dense(compose(stages)) - dense_product(stages)).max() <= 1e-12
