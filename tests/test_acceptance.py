"""End-to-end acceptance gate.

Each test class pins one numbered release criterion; the conftest hook
prints a PASS/FAIL line per criterion after the run.  Tolerances are
repeated as literals on purpose, so a relaxed module constant cannot
silently relax the gate.
"""

import cmath
import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fockflow.algebra import (
    ModeBasis,
    Statistics,
    add,
    apply_creation,
    canonicalize,
    norm_squared,
    scale,
    substitute,
    vacuum,
)
from fockflow.analysis import (
    ChshSettings,
    chsh_grid_search,
    chsh_value,
    closed_form_table,
    completeness,
    correlation,
    factorization_residual,
)
from fockflow.cdl import (
    LexError,
    ParseError,
    SemanticError,
    compile_circuit,
    execute,
    parse_source,
    pretty_print,
    tokenize,
)
from fockflow.elements import (
    beam_splitter,
    compose,
    dof_sorter,
    hybrid_beam_splitter,
    phase_shifter,
    verify_unitary,
)
from fockflow.experiments import (
    CloneEnsemble,
    PhaseSettings,
    X_MINUS,
    X_PLUS,
    Z_ONE,
    Z_ZERO,
    dial_runner,
    hyper_hybrid_circuit,
    party_occupations,
    run_circuit,
    run_table,
    signaling_decode_exact,
    signaling_decode_mc,
    sorter_cascade,
    swap_circuit,
)
from reference import reference_decode, reference_substitute

TOL_EXACT = 1e-12
TOL_TABLE = 1e-9
ROOT_EIGHT = 2.0 * math.sqrt(2.0)
KINDS = ("spin-spin", "spin-path", "path-spin", "path-path")
GRID_9 = tuple(k * 2.0 * math.pi / 9.0 for k in range(9))
DIAL_GRID_16 = tuple(k * math.pi / 8.0 for k in range(16))
EXAMPLES = Path(__file__).resolve().parents[1] / "src" / "fockflow" / "examples"


def random_quadruples(count: int, seed: int):
    rng = np.random.default_rng(seed)
    return [PhaseSettings(*rng.uniform(0.0, 2.0 * math.pi, 4)) for _ in range(count)]


@pytest.mark.criterion(1, "fermion interferometer amplitudes match the operator-product expansion")
class TestAmplitudeExpansion:
    # canonical mode order: external major (L < D < R < U), internal minor
    EXT = {"L": 0, "D": 1, "R": 2, "U": 3}
    INT = {"down": 0, "up": 1}

    @classmethod
    def key(cls, flavor):
        return (cls.EXT[flavor[1]], cls.INT[flavor[0]])

    @classmethod
    def expansion(cls, s: PhaseSettings) -> dict:
        """Expand the two evolved creation operators by hand.

        Each input operator becomes a four-term bracket (transmit, reflect
        with flip, then the second splitter layer and phase plates folded
        in); the product is anticommuted into canonical order term by term.
        """
        e_r, e_d = cmath.exp(1j * s.phi_r), cmath.exp(1j * s.phi_d)
        e_l, e_u = cmath.exp(1j * s.phi_l), cmath.exp(1j * s.phi_u)
        right = [
            (("down", "R"), e_r),
            (("up", "U"), 1j * e_r),
            (("up", "D"), 1j * e_d),
            (("down", "L"), -e_d),
        ]
        left = [
            (("down", "L"), e_l),
            (("up", "D"), 1j * e_l),
            (("up", "U"), 1j * e_u),
            (("down", "R"), -e_u),
        ]
        acc = {}
        for a, ca in right:
            for b, cb in left:
                if a == b:
                    continue
                coeff = 0.25 * ca * cb
                pair = (a, b)
                if cls.key(a) > cls.key(b):
                    pair, coeff = (b, a), -coeff
                acc[pair] = acc.get(pair, 0j) + coeff
        return {p: c for p, c in acc.items() if abs(c) > 0.0}

    def test_twenty_random_quadruples(self):
        worst = 0.0
        for s in random_quadruples(20, seed=101):
            oracle = self.expansion(s)
            state = hyper_hybrid_circuit(Statistics.FERMION, s).final_state
            seen = set()
            for mono, amp in state.terms.items():
                # single occupancy throughout, so the stored coefficient
                # is the amplitude itself
                pair = tuple((m.internal.name, m.external.name) for m, _ in mono.entries)
                seen.add(pair)
                worst = max(worst, abs(amp - oracle.get(pair, 0j)))
            for pair, coeff in oracle.items():
                if pair not in seen:
                    worst = max(worst, abs(coeff))
        assert worst < TOL_EXACT


@pytest.mark.criterion(2, "coincidence tables match closed forms over the 9^4 phase grid")
class TestTablesOnPhaseGrid:
    @pytest.mark.parametrize(
        "stats", [Statistics.FERMION, Statistics.BOSON], ids=lambda s: s.name.lower()
    )
    def test_all_kinds_on_grid(self, stats):
        worst = 0.0
        for pl, pd, pr, pu in itertools.product(GRID_9, repeat=4):
            s = PhaseSettings(pl, pd, pr, pu)
            run = run_circuit("hyperhybrid", stats, s)
            for kind in KINDS:
                got = run_table(run, kind).probs
                want = closed_form_table(kind, stats, s).probs
                worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst < TOL_TABLE


@pytest.mark.criterion(3, "CHSH reaches 2*sqrt(2) for the fermion interferometer and the swap")
class TestChshMaximum:
    def test_fermion_standard_quadruple(self):
        runner = dial_runner("hyperhybrid", Statistics.FERMION, "path-path")
        s = ChshSettings(0.0, math.pi, math.pi / 4.0, -math.pi / 4.0)
        assert abs(chsh_value(runner, s) - ROOT_EIGHT) < TOL_TABLE

    def test_swap_grid_search(self):
        runner = dial_runner("swap", Statistics.BOSON, "spin-path")
        best, found = chsh_grid_search(runner, DIAL_GRID_16)
        assert abs(best - ROOT_EIGHT) < TOL_TABLE
        # and the found settings reproduce the value when replayed
        assert abs(chsh_value(runner, found) - best) < TOL_TABLE


@pytest.mark.criterion(4, "distinguishable particles: flat tables, zero correlation, CHSH within 2")
class TestDistinguishableCollapse:
    def test_flat_cells_and_zero_correlation(self):
        worst_cell = 0.0
        worst_e = 0.0
        for s in random_quadruples(20, seed=404):
            run = run_circuit("hyperhybrid", Statistics.DISTINGUISHABLE, s)
            for kind in KINDS:
                table = run_table(run, kind)
                worst_cell = max(worst_cell, float(np.max(np.abs(table.probs - 0.125))))
                worst_e = max(worst_e, abs(correlation(table)))
        assert worst_cell < TOL_EXACT
        assert worst_e < TOL_EXACT

    @pytest.mark.parametrize("kind", ["path-path", "spin-spin"])
    def test_chsh_never_exceeds_classical_bound(self, kind):
        runner = dial_runner("hyperhybrid", Statistics.DISTINGUISHABLE, kind)
        best, _ = chsh_grid_search(runner, DIAL_GRID_16)
        assert best <= 2.0 + TOL_EXACT


@pytest.mark.criterion(5, "decode probabilities exact for 1..20 carriers; Monte Carlo in 3 sigma")
class TestSignalingDecode:
    def test_exact_closed_forms(self):
        for n in range(1, 21):
            assert signaling_decode_exact(dofs=n) == 1.0 - 2.0**-n
            assert signaling_decode_exact(copies=n) == 1.0 - 2.0**-n
            assert signaling_decode_exact(dofs=n) == reference_decode(dofs=n)
            assert signaling_decode_exact(copies=n) == reference_decode(copies=n)
        assert signaling_decode_exact(dofs=2) == 0.75
        assert signaling_decode_exact(dofs=3) == 0.875

    def test_monte_carlo_within_three_standard_errors(self):
        exact = signaling_decode_exact(dofs=2)
        hits = 0
        for seed in range(100):
            estimate, stderr = signaling_decode_mc(dofs=2, trials=10**6, seed=seed)
            hits += abs(estimate - exact) <= 3.0 * stderr
        assert hits >= 99


@pytest.mark.criterion(6, "sorter cascade detector masses exact")
class TestCascadeMasses:
    def test_two_clone_z_states_are_deterministic(self):
        lowest = sorter_cascade(CloneEnsemble(2, Z_ZERO))
        highest = sorter_cascade(CloneEnsemble(2, Z_ONE))
        assert abs(lowest.probs.get(1, 0.0) - 1.0) < TOL_EXACT
        assert abs(highest.probs.get(4, 0.0) - 1.0) < TOL_EXACT
        assert abs(lowest.mass((1, 4)) - 1.0) < TOL_EXACT
        assert abs(highest.mass((1, 4)) - 1.0) < TOL_EXACT

    @pytest.mark.parametrize("state", [X_PLUS, X_MINUS], ids=["plus", "minus"])
    def test_x_state_masses(self, state):
        two = sorter_cascade(CloneEnsemble(2, state))
        assert abs(two.mass((2, 3)) - 0.5) < TOL_EXACT
        three = sorter_cascade(CloneEnsemble(3, state))
        assert abs(three.mass((1, 8)) - 0.25) < TOL_EXACT


@pytest.mark.criterion(7, "swap tables follow the quarter-angle law and one side factorizes")
class TestSwapOnPhaseGrid:
    def test_quarter_angle_law_and_factorization(self):
        worst_cell = 0.0
        worst_residual = 0.0
        for pl, pd, pr, pu in itertools.product(GRID_9, repeat=4):
            s = PhaseSettings(pl, pd, pr, pu)
            run = swap_circuit(s)
            half = (pd - pl - pr + pu) / 2.0
            c2 = 0.25 * math.cos(half) ** 2
            s2 = 0.25 * math.sin(half) ** 2
            want = np.array([[c2, s2], [s2, c2]])
            got = run_table(run, "spin-path").probs
            worst_cell = max(worst_cell, float(np.max(np.abs(got - want))))
            worst_residual = max(
                worst_residual, factorization_residual(party_occupations(run, "B"))
            )
        assert worst_cell < TOL_TABLE
        assert worst_residual < TOL_TABLE


# --- criterion 8: property-based algebra suite ---

BASIS = ModeBasis(internals=("down", "up"), externals=("L", "D", "R", "U"))
SPECIES_BASIS = ModeBasis(
    internals=("down", "up"), externals=("L", "D", "R", "U"), species=(1, 2)
)
SP1_MODES = tuple(m for m in SPECIES_BASIS.modes if m.species == 1)
SP2_MODES = tuple(m for m in SPECIES_BASIS.modes if m.species == 2)
PORTS = ("L", "D", "R", "U")

MODES = st.sampled_from(BASIS.modes)
OPS = st.lists(MODES, min_size=1, max_size=5)
STATS = st.sampled_from(
    [Statistics.FERMION, Statistics.BOSON, Statistics.DISTINGUISHABLE]
)
PHASES = st.floats(min_value=0.0, max_value=2.0 * math.pi)
SCALARS = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)

PROP = settings(
    max_examples=1000,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


@st.composite
def transform_st(draw, basis=BASIS):
    """A random unitary: zero to four layered optical elements, composed."""
    stages = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        pick = draw(st.integers(min_value=0, max_value=4))
        if pick in (0, 1):
            a, b, t, r = draw(st.permutations(PORTS))
            build = beam_splitter if pick == 0 else hybrid_beam_splitter
            stages.append(build(basis, a, b, t, r))
        elif pick == 2:
            stages.append(phase_shifter(basis, draw(st.sampled_from(PORTS)), draw(PHASES)))
        elif pick == 3:
            shuffled = draw(st.permutations(PORTS))
            stages.append(dof_sorter(basis, "external", dict(zip(PORTS, shuffled))))
        else:
            t_down, t_up = draw(st.permutations(PORTS))[:2]
            routing = {"down": t_down, "up": t_up}
            stages.append(dof_sorter(basis, "internal", routing, port=draw(st.sampled_from(PORTS))))
    return compose(stages, basis)


@st.composite
def state_st(draw, statistics=None):
    stats = statistics if statistics is not None else draw(STATS)
    out = vacuum(stats)
    for mode in draw(st.lists(MODES, min_size=1, max_size=3)):
        out = apply_creation(out, mode)
    assume(out.terms)  # a fermionic repeat annihilates the whole state
    return out


@st.composite
def mixed_state_st(draw, statistics, basis):
    """One to three weighted terms of zero to four operators; zero is the vacuum."""
    out = scale(vacuum(statistics), 0.0)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        term = vacuum(statistics)
        for mode in draw(st.lists(st.sampled_from(basis.modes), max_size=4)):
            term = apply_creation(term, mode)
        out = add(out, scale(term, draw(SCALARS)))
    return out


@pytest.mark.criterion(8, "algebra properties hold over 1000+ generated cases each")
class TestAlgebraProperties:
    @PROP
    @given(ops=OPS, stats=STATS)
    def test_canonicalization_idempotence(self, ops, stats):
        coeff, mono = canonicalize(ops, stats)
        if mono is None:
            assert stats is Statistics.FERMION and coeff == 0
        else:
            assert mono.is_canonical()
            assert canonicalize(mono.ops(), stats) == (1, mono)

    @PROP
    @given(data=st.data())
    def test_fermionic_antisymmetry_and_pauli_exclusion(self, data):
        ops = data.draw(st.lists(MODES, min_size=2, max_size=5))
        i = data.draw(st.integers(min_value=0, max_value=len(ops) - 2))
        j = data.draw(st.integers(min_value=i + 1, max_value=len(ops) - 1))
        coeff, mono = canonicalize(ops, Statistics.FERMION)
        swapped = list(ops)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        if mono is None:
            assert canonicalize(swapped, Statistics.FERMION) == (0, None)
        else:
            assert canonicalize(swapped, Statistics.FERMION) == (-coeff, mono)
        doubled = list(ops)
        doubled.insert(data.draw(st.integers(min_value=0, max_value=len(ops))), ops[0])
        assert canonicalize(doubled, Statistics.FERMION) == (0, None)

    @PROP
    @given(data=st.data())
    def test_bosonic_permutation_symmetry(self, data):
        ops = data.draw(OPS)
        shuffled = data.draw(st.permutations(ops))
        assert canonicalize(shuffled, Statistics.BOSON) == canonicalize(ops, Statistics.BOSON)

    @PROP
    @given(data=st.data())
    def test_substitution_linearity(self, data):
        stats = data.draw(STATS)
        s1 = data.draw(state_st(statistics=stats))
        s2 = data.draw(state_st(statistics=stats))
        a = data.draw(SCALARS)
        b = data.draw(SCALARS)
        t = data.draw(transform_st())
        lhs = substitute(add(scale(s1, a), scale(s2, b)), t)
        rhs = add(scale(substitute(s1, t), a), scale(substitute(s2, t), b))
        for mono in set(lhs.terms) | set(rhs.terms):
            assert abs(lhs.terms.get(mono, 0j) - rhs.terms.get(mono, 0j)) < TOL_TABLE

    @PROP
    @given(state=state_st(), t=transform_st())
    def test_unitary_norm_preservation(self, state, t):
        assert verify_unitary(t)
        assert math.isclose(
            norm_squared(substitute(state, t)),
            norm_squared(state),
            rel_tol=TOL_TABLE,
            abs_tol=TOL_TABLE,
        )

    @PROP
    @given(data=st.data())
    def test_outcome_completeness(self, data):
        stats = data.draw(STATS)
        if stats is Statistics.DISTINGUISHABLE:
            basis = SPECIES_BASIS
            first = data.draw(st.sampled_from(SP1_MODES))
            second = data.draw(st.sampled_from(SP2_MODES))
        else:
            basis = BASIS
            first = data.draw(MODES)
            second = data.draw(MODES)
        state = apply_creation(apply_creation(vacuum(stats), first), second)
        assume(state.terms)
        final = substitute(state, data.draw(transform_st(basis=basis)))
        assert abs(completeness(final, basis) - 1.0) < TOL_TABLE

    @PROP
    @given(data=st.data())
    def test_substitution_matches_full_expansion(self, data):
        stats = data.draw(STATS)
        basis = SPECIES_BASIS if stats is Statistics.DISTINGUISHABLE else BASIS
        state = data.draw(mixed_state_st(stats, basis))
        t = data.draw(transform_st(basis=basis))
        got = substitute(state, t)
        want = reference_substitute(state, t)
        for mono in set(got.terms) | set(want.terms):
            assert abs(got.terms.get(mono, 0j) - want.terms.get(mono, 0j)) < TOL_TABLE


@pytest.mark.criterion(9, "circuit files round-trip, compile to the hardcoded circuits, flag mutations")
class TestCircuitLanguage:
    PARAMS = {"phiL": 0.3, "phiD": 1.1, "phiR": 2.0, "phiU": 0.7}
    SETTINGS = PhaseSettings(phi_l=0.3, phi_d=1.1, phi_r=2.0, phi_u=0.7)

    @staticmethod
    def bundled():
        names = sorted(p.name for p in EXAMPLES.glob("*.cdl"))
        assert len(names) == 7, names
        return names

    @staticmethod
    def state_deviation(a, b):
        keys = set(a.terms) | set(b.terms)
        return max(abs(a.terms.get(k, 0.0) - b.terms.get(k, 0.0)) for k in keys)

    def test_round_trip_identity_on_all_bundled_sources(self):
        for name in self.bundled():
            tree = parse_source((EXAMPLES / name).read_text())
            assert parse_source(pretty_print(tree)) == tree, name

    def test_compiled_interferometer_matches_hardcoded(self):
        tree = parse_source((EXAMPLES / "hh_fermion.cdl").read_text())
        got = execute(compile_circuit(tree, params=self.PARAMS))
        want = hyper_hybrid_circuit(Statistics.FERMION, self.SETTINGS).final_state
        assert self.state_deviation(got, want) < TOL_EXACT

    def test_compiled_swap_matches_hardcoded(self):
        tree = parse_source((EXAMPLES / "swap.cdl").read_text())
        got = execute(compile_circuit(tree, params=self.PARAMS))
        want = swap_circuit(self.SETTINGS).final_state
        assert self.state_deviation(got, want) < TOL_EXACT

    def test_five_hundred_mutations_error_at_the_mutated_position(self):
        corpus = []
        for name in self.bundled():
            src = (EXAMPLES / name).read_text()
            starts = [0]
            for k, ch in enumerate(src):
                if ch == "\n":
                    starts.append(k + 1)
            tokens = [t for t in tokenize(src) if t.kind != "end"]
            corpus.append((src, starts, tokens))
        rng = random.Random(20260816)
        for _ in range(500):
            src, starts, tokens = rng.choice(corpus)
            tok = rng.choice(tokens)
            inject = "=" if tok.text == "->" else "->"
            off = starts[tok.line - 1] + tok.col - 1
            assert src[off : off + len(tok.text)] == tok.text
            mutated = src[:off] + inject + src[off + len(tok.text) :]
            with pytest.raises((LexError, ParseError, SemanticError)) as err:
                parse_source(mutated)
            assert (err.value.line, err.value.col) == (tok.line, tok.col)
