"""Unit tests for the circuit description language."""

import math
from pathlib import Path

import pytest

from fockflow.algebra import Statistics, norm_squared
from fockflow.cdl import (
    LabelRef,
    LexError,
    ParseError,
    SemanticError,
    compile_circuit,
    execute,
    parse,
    parse_source,
    pretty_print,
    rebin,
    tokenize,
)
from fockflow.experiments import (
    PhaseSettings,
    hyper_hybrid_circuit,
    partition,
    swap_circuit,
)

EXAMPLES = Path(__file__).resolve().parents[1] / "src" / "fockflow" / "examples"

MINIMAL = """\
internal down up
external a b
statistics boson
particle down a
"""


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


class TestCompiler:
    PARAMS = {"phiL": 0.3, "phiD": 1.1, "phiR": 2.0, "phiU": 0.7}
    SETTINGS = PhaseSettings(phi_l=0.3, phi_d=1.1, phi_r=2.0, phi_u=0.7)

    @staticmethod
    def state_deviation(a, b):
        keys = set(a.terms) | set(b.terms)
        return max(abs(a.terms.get(k, 0.0) - b.terms.get(k, 0.0)) for k in keys)

    def test_empty_element_list_returns_initial(self):
        c = compile_circuit(parse_source(MINIMAL))
        assert execute(c) is c.initial

    def test_unbound_parameter_defaults_to_zero(self):
        c = compile_circuit(parse_source(MINIMAL + "phase a $theta\n"))
        assert execute(c).terms == c.initial.terms

    def test_interferometer_matches_hardcoded(self):
        tree = parse_source(read("hh_fermion.cdl"))
        got = execute(compile_circuit(tree, params=self.PARAMS))
        want = hyper_hybrid_circuit(Statistics.FERMION, self.SETTINGS).final_state
        assert self.state_deviation(got, want) < 1e-12

    def test_swap_matches_hardcoded(self):
        tree = parse_source(read("swap.cdl"))
        got = execute(compile_circuit(tree, params=self.PARAMS))
        want = swap_circuit(self.SETTINGS).final_state
        assert self.state_deviation(got, want) < 1e-12

    def test_partitions_match_hardcoded(self):
        tree = parse_source(read("swap.cdl"))
        c = compile_circuit(tree)
        run = swap_circuit(PhaseSettings())
        assert c.partitions["A"] == partition(run, "A", "internal")
        assert c.partitions["B"] == partition(run, "B", "external")

    @pytest.mark.parametrize("name", ["hh_fermion.cdl", "hh_distinguishable.cdl", "swap.cdl"])
    def test_rebin_matches_hardcoded_partitions(self, name):
        c = compile_circuit(parse_source(read(name)))
        if name == "swap.cdl":
            run = swap_circuit(PhaseSettings())
        else:
            run = hyper_hybrid_circuit(c.statistics, PhaseSettings())
        for party in "AB":
            for kind in ("external", "internal"):
                assert rebin(c, party, kind) == partition(run, party, kind)

    def test_rebin_orders_ports_by_first_appearance_and_spins_by_declaration(self):
        src = MINIMAL.replace("external a b", "external a b c")
        c = compile_circuit(parse_source(src + "measure A external bin x = b bin y = up:c a\n"))
        by_port = rebin(c, "A", "external")
        assert by_port.labels() == ("b", "c", "a")
        assert {(m.internal.name, m.external.name) for m in by_port.bins[1][1]} == {("up", "c")}
        by_spin = rebin(c, "A", "internal")
        assert by_spin.labels() == ("down", "up")
        assert by_spin.mode_union() == c.partitions["A"].mode_union()
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

    def test_partition_bins_cover_all_species(self):
        c = compile_circuit(parse_source(read("hh_distinguishable.cdl")))
        label, modes = c.partitions["A"].bins[0]
        assert label == "D"
        assert {m.species for m in modes} == {1, 2}

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
